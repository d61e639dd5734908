#!/usr/bin/env bash
# compare.sh PARENT CHANGE OUT: checks that CHANGE prints the stdout and exit
# codes and writes the JSON bytes PARENT does, for `enmc` and for every harness
# binary, and that CHANGE reads and re-writes PARENT's bench records.
#
# PARENT and CHANGE are checkouts with release builds:
#   cargo build --release --offline --workspace
#   cargo build --release --offline --manifest-path perf_suite/Cargo.toml
# Prints one line per comparison; exits nonzero when any differs.
set -u
P=$(cd "$1" && pwd); C=$(cd "$2" && pwd); OUT=$3
mkdir -p "$OUT"; OUT=$(cd "$OUT" && pwd)
HERE=$(cd "$(dirname "$0")" && pwd)
BINS=$(ls "$C/crates/bench/src/bin" | sed 's/\.rs$//')
fail=0

# Host time: `wall_ns`/`speedup` and the sharded-run note; surrogate_speedup
# prints nothing but host-time rates and counts, padded to their width. A fault-sweep report written
# before the sweep dropped its cost model carries a `surrogate` section; every
# other byte must match.
mask() { sed -E 's/"(wall_ns|speedup)":[^,}]*/"\1":X/g; s/speedup [0-9.]+x/speedup Xx/g'; }
mask_host() { sed -E 's/[0-9]+(\.[0-9]+)?/N/g; s/ +/ /g'; }
mask_fault() { mask | sed -E 's/,"surrogate":\{[^}]*\}//'; }

for side in parent change; do
  [ $side = parent ] && R=$P || R=$C
  B=$R/target/release; D=$OUT/$side; F=$D/files
  # Every `enmc` invocation in CI, README and the verify skill, plus text runs.
  "$HERE/../report_v11/run.sh" "$B/enmc" "$D"
  # The coefficient round trip at the largest seed: write, then load and write.
  for step in write reload; do
    [ $step = write ] && load=() || load=(--coeffs "$F/coeffs_max_seed_write.json")
    "$B/enmc" serve-sim --workload gnmt --requests 8 --candidates 0.01 --cost-model surrogate \
      --audit-rate 0 --seed 18446744073709551615 "${load[@]}" \
      --coeffs-out "$F/coeffs_max_seed_$step.json" --report json \
      > "$D/x_coeffs_max_seed_$step.out" 2> /dev/null
  done
  "$B/enmc" serve-sim --workload gnmt --arrival poisson --rate 0.2 --requests 48 --batch-max 2 \
    --candidates 0.01 --slo-cycles 60000 --threads 4 --cost-model surrogate --audit-rate 0.1 \
    --report json > "$D/x_serve_surrogate_t4.out" 2> /dev/null
  for bug in tfaw-1 trcd-1; do
    "$B/enmc" fuzz-dram --seeds 8 --inject-bug $bug --repro-out "$F/repro_$bug.json" \
      > "$D/x_fuzz_$bug.out" 2> /dev/null; echo $? > "$D/x_fuzz_$bug.code"
  done
  # Every harness binary: stdout and exit code at defaults, where its --json
  # document lands in reports/ and its bench record in bench/; again under
  # ENMC_THREADS=4; then with the flags CI, README and the verify skill use.
  mkdir -p "$D/bench" "$D/reports"
  h() { # name, env, binary, args...
    local name=$1 envs=$2 bin=$3; shift 3
    env $envs "$B/$bin" "$@" > "$D/h_$name.out" 2> /dev/null; echo $? > "$D/h_$name.code"
  }
  for bin in $BINS; do
    h $bin "ENMC_BENCH_DIR=$D/bench ENMC_REPORT_DIR=$D/reports" $bin
    h ${bin}_env4 ENMC_THREADS=4 $bin
  done
  h fig13_t4 "" fig13_performance --threads 4 --json "$F/fig13_t4.json"
  h fig14_t4 "" fig14_energy --threads 4 --json "$F/fig14_t4.json"
  h fig12_t4 "" fig12_sensitivity --threads 4
  h fleet_capacity_t4 "" fleet_capacity --threads 4 --json "$F/fleet_capacity_t4.json"
  h memtech_t1 "" memtech_iso_quality --threads 1
  h memtech_t4 "" memtech_iso_quality --threads 4 --json "$F/memtech_t4.json"
  h fault_sweep_t4 "" fault_sweep --threads 4 --json "$F/fault_sweep_t4.json"
  h fleet_capacity_scale256 "" fleet_capacity --scale 256
  h fig15_scale16 "" fig15_scalability --scale 16 --json "$F/fig15_scale16.json"
  h fig15_scale0 "" fig15_scalability --scale 0
  h table05_json "" table05_area_power --json "$F/table05.json" --bench-json "$D/bench/BENCH_t5.json"
  "$R/perf_suite/target/release/perf_suite" --workload tune-lstm --seed 7 --seconds 2 \
    --bench-json "$D/bench/BENCH_perf_suite.json" > /dev/null 2>&1
done

same() { # label, parent file, change file, filter
  if cmp -s <($4 < "$2") <($4 < "$3"); then echo "same   $1"; else echo "DIFFER $1"; fail=1; fi
}
for f in "$OUT"/parent/*.out "$OUT"/parent/*.code; do
  name=$(basename "$f")
  case $name in h_surrogate_speedup*) filter=mask_host ;; *fault*) filter=mask_fault ;; *) filter=mask ;; esac
  same "$name" "$f" "$OUT/change/$name" $filter
done
for f in "$OUT"/parent/files/*; do same "files/$(basename "$f")" "$f" "$OUT/change/files/$(basename "$f")" cat; done
for f in "$OUT"/parent/reports/*; do
  same "reports/$(basename "$f")" "$f" "$OUT/change/reports/$(basename "$f")" cat
done

# The change reads every parent record and writes it back byte for byte,
# and the deterministic metrics gate clean from parent to change.
cat > "$OUT/rewrite.rs" <<'EOF'
fn main() {
    let mut bad = 0;
    for path in std::env::args().skip(1) {
        let text = std::fs::read_to_string(&path).expect("record reads");
        match enmc_obs::json::decode::<enmc_perf::bench::BenchRecord>(&text) {
            Ok(r) if enmc_obs::json::encode(&r) == text.trim_end() => println!("same   re-write {path}"),
            Ok(_) => { bad += 1; println!("DIFFER re-write {path}") }
            Err(e) => { bad += 1; println!("DIFFER rejected {path}: {e}") }
        }
    }
    std::process::exit(bad);
}
EOF
mkdir -p "$OUT/rewrite/src"; cp "$OUT/rewrite.rs" "$OUT/rewrite/src/main.rs"
cat > "$OUT/rewrite/Cargo.toml" <<EOF
[package]
name = "rewrite"
version = "0.1.0"
edition = "2021"
[dependencies]
enmc-obs = { path = "$C/crates/obs" }
enmc-perf = { path = "$C/crates/perf" }
[workspace]
EOF
(cd "$OUT/rewrite" && cargo build --release --offline -q) || fail=1
"$OUT/rewrite/target/release/rewrite" "$OUT"/parent/bench/*.json "$C/perf_suite/baseline.json" || fail=1
for rec in "$OUT"/parent/bench/*.json; do
  name=$(basename "$rec")
  if "$C/target/release/enmc" bench-diff "$rec" "$OUT/change/bench/$name" \
      --wall-tolerance 1000000000 > "$OUT/diff_$name.txt" 2>&1; then
    echo "pass   bench-diff parent -> change $name"
  else
    echo "FAIL   bench-diff parent -> change $name"; fail=1
  fi
done
exit $fail
