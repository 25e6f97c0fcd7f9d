#!/bin/sh
# Nondeterminism lint: all randomness must flow through seeded
# Vmm_sim.Rng streams and all time through the simulation engine —
# a stray stdlib RNG draw or wall-clock read silently breaks the
# record/replay guarantee (docs/REPLAY.md).
#
# Fails on `Random.`, `Unix.gettimeofday` or `Sys.time` anywhere in the
# source tree, except:
#   - lib/sim/rng.ml (the sanctioned seeded generator), and
#   - lines carrying a `determinism-ok` marker with a justification
#     (host-side wall-clock measurement that never feeds the sim).
#
# Also fails on `Sys.getenv` anywhere under lib/: the library reads no
# environment.  Run-time modes are parameters (`Machine.create ?jit`),
# and only the executables in bin/ and bench/ read environment variables.
set -eu
cd "$(dirname "$0")/.."

bad=$(grep -rn 'Random\.\|Unix\.gettimeofday\|Sys\.time' \
        lib bin bench test examples \
      | grep -v '^lib/sim/rng\.ml:' \
      | grep -v 'determinism-ok' || true)

if [ -n "$bad" ]; then
  echo "determinism check FAILED — stdlib RNG / wall clock outside Vmm_sim.Rng:" >&2
  echo "$bad" >&2
  echo "Route randomness through Vmm_sim.Rng and time through the engine," >&2
  echo "or mark a justified host-side use with 'determinism-ok: <why>'." >&2
  exit 1
fi

env_reads=$(grep -rn 'Sys\.getenv' lib || true)

if [ -n "$env_reads" ]; then
  echo "determinism check FAILED — environment read inside the library:" >&2
  echo "$env_reads" >&2
  echo "Take the setting as a parameter and read the variable in bin/ or bench/." >&2
  exit 1
fi
echo "determinism check passed"
