#!/usr/bin/env bash
# run.sh BIN OUT: runs every invocation, saving stdout, stderr and exit code.
BIN=$1; OUT=$2; mkdir -p $OUT/files
r() { # name, env, args...
  local name=$1; shift; local envs=$1; shift
  env $envs $BIN "$@" > $OUT/$name.out 2> $OUT/$name.err; echo $? > $OUT/$name.code
}
F=$OUT/files
# --- JSON reports (CI) ---
r ci_sim_t1 ENMC_THREADS=1 simulate --workload lstm --threads 1 --check-protocol --report json
r ci_sim_t4 ENMC_THREADS=4 simulate --workload lstm --threads 4 --check-protocol --report json
for t in 1 4; do
r ci_serve_poisson_$t ENMC_THREADS=$t serve-sim --workload gnmt --arrival poisson --rate 0.2 --requests 48 --batch-max 2 --candidates 0.01 --slo-cycles 60000 --check-protocol --report json
r ci_serve_burst_$t ENMC_THREADS=$t serve-sim --workload gnmt --arrival burst --rate 0.4 --requests 96 --batch-max 2 --degrade-tiers "323:0,161:1,80:2" --slo-cycles 40000 --linger 1000 --shed-queue 16 --degrade-queue 6 --upgrade-queue 2 --candidates 0.01 --check-protocol --report json
r ci_fleet_$t ENMC_THREADS=$t fleet-sim --shape gnmt --nodes 2 --shards 4 --tenants 2 --requests 48 --rate 0.4 --candidates 0.01 --slo-cycles 60000 --cost-model surrogate --audit-rate 0.1 --check-protocol --report json
r ci_tune_$t ENMC_THREADS=$t tune --workload lstm --max-area-mm2 28.3 --frontier-out $F/tune_frontier_$t.json --report json
r ci_offload_$t ENMC_THREADS=$t offload-plan --workload lstm --batch-max 4 --report json
r ci_fault_nominal_$t ENMC_THREADS=$t fault-sweep --shape lstm-wikitext2 --ber 0 --queries 64 --report json
r ci_fault_mech_$t ENMC_THREADS=$t fault-sweep --shape xmlcnn-amazon670k --ber 1e-4 --multipliers 1,8,32 --weak-columns 0.01 --ecc --queries 32 --report json
r ci_sim_ddr5_$t ENMC_THREADS=$t simulate --workload lstm --memory ddr5-4800 --check-protocol --report json
done
for p in consistent-hash popularity; do
r ci_fleet_$p "" fleet-sim --shape gnmt --nodes 2 --shards 4 --tenants 2 --requests 48 --rate 0.4 --candidates 0.01 --slo-cycles 60000 --placement $p --check-protocol --report json
done
r ci_tune_guided "" tune --workload lstm --max-area-mm2 28.3 --search guided --frontier-out $F/tune_frontier_guided.json --report json
r ci_fault_ber "" fault-sweep --shape lstm-wikitext2 --ber 1e-4 --queries 64 --report json
r ci_fault_ecc "" fault-sweep --shape lstm-wikitext2 --ber 1e-4 --queries 64 --ecc --report json
r ci_fault_surrogate "" fault-sweep --shape lstm-wikitext2 --ber 1e-4 --multipliers 1,2,4,8,16,32 --ecc --queries 16 --cost-model surrogate --audit-rate 0.1 --coeffs-out $F/surrogate_coeffs.json --report json
r ci_serve_surrogate "" serve-sim --workload gnmt --arrival poisson --rate 0.2 --requests 48 --batch-max 2 --candidates 0.01 --slo-cycles 60000 --cost-model surrogate --audit-rate 0.1 --report json
sed 's/"screener_busy":\[[^]]*\]/"screener_busy":[0,0,0,0,0,0]/' $F/surrogate_coeffs.json > $OUT/coeffs_bad.json
r ci_fault_badcoeffs "" fault-sweep --shape lstm-wikitext2 --ber 1e-4 --ecc --queries 16 --cost-model surrogate --audit-rate 1 --coeffs $OUT/coeffs_bad.json --report json
r ci_tune_mixed "" tune --workload lstm --ranks 64 --lanes 128 --memory ddr4-2666,ddr5-4800,lpddr4-3200,hbm2 --max-power-mw 46000 --frontier-out $F/frontier_mixed.json --report json
# --- README ---
r rd_sim_lstm "" simulate --workload lstm --scheme enmc --report json
r rd_serve_burst "" serve-sim --workload gnmt --arrival burst --rate 0.4 --slo-cycles 40000 --batch-max 2 --degrade-tiers "323:0,161:1,80:2" --check-protocol --report json
r rd_fleet "" fleet-sim --shape gnmt --nodes 4 --shards 8 --tenants 2 --placement popularity --replicas 3 --zipf 1.5 --rate 0.5 --check-protocol --report json
r rd_fault "" fault-sweep --shape lstm-wikitext2 --ber 1e-4 --multipliers 1,8,32,64 --ecc --report json
# --- verify skill ---
r vs_sim_trace "" simulate --workload lstm --scheme enmc --trace-out $F/sim_trace.json --report json
r vs_sim_xmlcnn_t4 "" simulate --workload xmlcnn --threads 4 --report json
r vs_sim_check "" simulate --workload lstm --check-protocol --report json
r vs_fault_surrogate "" fault-sweep --shape lstm-wikitext2 --ber 1e-4 --multipliers 1,8,32 --ecc --queries 16 --cost-model surrogate --audit-rate 1 --coeffs-out $F/c.json --report json
# --- added ---
r add_sim_t2 "" simulate --workload lstm --threads 2 --report json
r add_sim_cpu_t2 "" simulate --workload lstm --scheme cpu --threads 2 --report json
r add_profile "" profile --report json
r add_profile_s1m "" profile --shape s1m --threads 4 --memory lpddr4-3200 --report json
r add_serve_offload "" serve-sim --workload gnmt --arrival poisson --rate 0.2 --requests 48 --batch-max 2 --candidates 0.01 --slo-cycles 60000 --offload --report json
r add_fleet_offload "" fleet-sim --shape gnmt --nodes 2 --shards 4 --tenants 2 --requests 48 --rate 0.4 --candidates 0.01 --slo-cycles 60000 --offload --report json
r add_offload_hbm "" offload-plan --workload gnmt --batch-max 3 --memory hbm2 --cost-model surrogate --report json
r add_sim_s1m "" simulate --workload s1m --report json
# --- text stdout ---
r tx_demo "" demo
r tx_sim "" simulate
r tx_sim_t4 "" simulate --workload xmlcnn --threads 4
r tx_sim_cpu "" simulate --scheme cpu --check-protocol
r tx_serve "" serve-sim --workload gnmt --arrival poisson --rate 0.2 --requests 48 --batch-max 2 --candidates 0.01 --slo-cycles 60000 --check-protocol --offload --trace-out $F/serve_trace.json
r tx_fleet "" fleet-sim --shape gnmt --nodes 2 --shards 4 --tenants 2 --requests 48 --rate 0.4 --candidates 0.01 --slo-cycles 60000 --cost-model surrogate --audit-rate 0.1 --offload --coeffs-out $F/fleet_coeffs.json
r tx_tune "" tune --workload lstm --max-area-mm2 28.3
r tx_offload "" offload-plan --workload lstm --batch-max 4
r tx_fault "" fault-sweep --shape lstm-wikitext2 --ber 1e-4 --queries 32 --ecc --trace-out $F/fault_trace.json
r tx_profile "" profile --shape s1m --threads 1
r tx_profile_trace "" profile --shape s1m --threads 4 --self-profile --trace-out $F/profile_trace.json
r tx_fuzz "" fuzz-dram --seeds 4
r tx_fuzz_bug "" fuzz-dram --seeds 4 --inject-bug tfaw-1 --repro-out $F/repro.json
r tx_workloads "" workloads
r tx_list_memory "" list-memory
r tx_gen_coeffs "" serve-sim --workload gnmt --requests 8 --candidates 0.01 --cost-model surrogate --audit-rate 0 --coeffs-out $F/serve_coeffs.json
sed -E 's/"ns_per_cycle":[0-9.]+/"ns_per_cycle":NaN/' $F/serve_coeffs.json > $OUT/nan_coeffs.json
r tx_nan_coeffs "" serve-sim --workload gnmt --requests 8 --candidates 0.01 --cost-model surrogate --audit-rate 0 --coeffs $OUT/nan_coeffs.json
r tx_load_coeffs "" serve-sim --workload gnmt --requests 8 --candidates 0.01 --cost-model surrogate --audit-rate 1 --coeffs $F/serve_coeffs.json
