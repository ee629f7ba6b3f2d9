#!/bin/sh
# CI entry point: build, run the full test suite, then a scaled-down
# benchmark smoke run that exercises the fig8 interpreter-performance
# harness end to end (including --json output, validated for
# well-formedness below).
set -eu

cd "$(dirname "$0")"

echo "== build =="
dune build

echo "== the environment is read in one place: Run_config =="
if grep -rn 'Sys.getenv' lib/ | grep -v '^lib/core/run_config.ml:'; then
  echo "Sys.getenv outside lib/core/run_config.ml"; exit 1
fi

echo "== one tick-until-verdict loop: Workflow.drive =="
if grep -rn 'Difftest\.tick' lib/ bin/ bench/ examples/ \
    | grep -v '^lib/core/workflow.ml:'; then
  echo "Difftest.tick outside lib/core/workflow.ml (use Workflow.drive)"; exit 1
fi

echo "== one job runner: Grid =="
if grep -rn 'Pool\.map' lib/ bin/ bench/ examples/ | grep -v '^lib/core/grid.ml:'; then
  echo "Pool.map outside lib/core/grid.ml (use Grid.run or Grid.map)"; exit 1
fi
if grep -rn 'Supervisor' lib/ bin/ bench/ examples/; then
  echo "Supervisor is gone: Grid supervises every job"; exit 1
fi

echo "== one owner per ISA rule: every executor calls the one definition =="
# the ISS, NEMU's engines and REF core and the DUT share each RISC-V
# rule; a rule's marker names the one module allowed to spell it out
check_rule_owner() {
  marker=$1; owner=$2
  if grep -rnF -- "$marker" lib/ bin/ bench/ examples/ | grep -vE "^$owner:"; then
    echo "ISA rule marker '$marker' outside its owner $owner"; exit 1
  fi
}
check_rule_owner 'CSRRWI when rd = 0' 'lib/riscv/isa\.mli?'
check_rule_owner 'Ecall_from_u' 'lib/riscv/trap\.mli?'
check_rule_owner 'Width_w -> 4' 'lib/iss/alu\.ml'
check_rule_owner 'check_aligned vaddr size exc =' 'lib/riscv/isa\.mli?'
check_rule_owner 'check_dram plat paddr exc' 'lib/riscv/isa\.mli?'
check_rule_owner 'type access = Fetch | Load | Store' 'lib/riscv/pte\.mli?'
check_rule_owner 'Int64.rem vaddr' 'lib/riscv/isa\.mli?'
# the Sv39 walk indexes a table by a va's vpn only in Pte.walk; the host
# TLB is filled only by Mach.translate
check_rule_owner 'vpn va level' 'lib/riscv/pte\.mli?'
check_rule_owner 'tlb_fill' 'lib/nemu/mach\.ml'

echo "== one owner per layout: Uop's rows, through Uop's inlined accessors =="
if grep -rnE 'Uop\.(ints|words|mask)\b' lib/ bin/ bench/ examples/ test/ \
    | grep -v '^lib/xiangshan/uop.ml:'; then
  echo "Uop's row arrays named outside lib/xiangshan/uop.ml (use Uop.get and friends)"; exit 1
fi
# the accessors are free only with cross-module inlining, which -opaque
# (dune's dev profile) turns off: dune-workspace selects release
CORE_CMX=_build/default/lib/xiangshan/.xiangshan.objs/native/xiangshan__Core.cmx
dune rules "$CORE_CMX" > ci_rules.txt
grep -q 'ocamlopt' ci_rules.txt || { echo "no compile rule for $CORE_CMX"; exit 1; }
if grep -q -- '-opaque' ci_rules.txt; then
  echo "lib/xiangshan compiles with -opaque: no cross-module inlining"; exit 1
fi
rm -f ci_rules.txt

echo "== one gate for the state compare: Arch_state's setters move the epoch, Difftest.tick compares =="
# Arch_state.t is private, so the compiler rejects a pc write elsewhere;
# the register arrays stay writable through the record, so a write
# that would not move the touched epoch is found here
if grep -rnE 'f?regs\.\([^)]*\) *<-|Array\.(blit|fill|set|unsafe_set)\b.*f?regs\b' \
    lib/ bin/ bench/ examples/ test/ | grep -v '^lib/riscv/arch_state.ml:'; then
  echo "register array written outside lib/riscv/arch_state.ml (use Arch_state.set_reg/set_freg)"; exit 1
fi
if grep -rn 'compare_state' lib/ bin/ bench/ examples/ test/ | grep -v '^lib/core/difftest.ml:'; then
  echo "compare_state outside lib/core/difftest.ml"; exit 1
fi
# its one call is the epoch gate in tick
awk '/^let /{ fn = $2; next }
  /compare_state/ { n++; if (fn != "tick") { print "compare_state called in " fn; bad = 1 } }
  END { if (n != 1) { print n + 0 " calls of compare_state, wanted 1"; bad = 1 }; exit bad }' \
  lib/core/difftest.ml

echo "== one counter mechanism: Core.perf fields, named once in Core.counter_snapshot =="
if grep -rn 'Perf_counter' lib/ bin/ bench/ examples/ test/; then
  echo "Perf_counter is gone: a core counter is a plain field of Core.perf"; exit 1
fi
if grep -rnF -e '"commit.width_' -e '"stall.dispatch.' lib/ bin/ bench/ examples/ \
    | grep -v '^lib/xiangshan/core.ml:'; then
  echo "core counter named outside lib/xiangshan/core.ml (Core.counter_snapshot names them)"; exit 1
fi

echo "== tests =="
dune runtest

echo "== allocation gate: cosim_spec minor words per cycle (deterministic) =="
# perfbench counts minor words with Gc.minor_words in a forked child, so
# the figure repeats exactly; the budget sits just above the 20.63
# measured with a ring of fetch slots whose pcs are unboxed and a
# predictor and TLB that report into their own fields (the budget was
# 40.5 for the 40.18 of ROB-resident uops with unboxed 64-bit uop and
# register state, 70 for the 69.58 of per-slot commit probes and
# reusable REF commit records, and the count 120.75 before them)
python3 perfbench/run.py --workload cosim_spec --seed 1 --seconds 0 --trace 0 \
  2>/dev/null | tail -1 > ci_alloc.json
python3 - ci_alloc.json <<'EOF_ALLOC'
import json, sys
r = json.load(open(sys.argv[1]))
budget = 21.0
w = r["metrics"]["alloc_words_per_cycle"]["value"]
if r.get("correct") is not True:
    sys.exit("cosim_spec: correct is not true")
if w > budget:
    sys.exit("cosim_spec: %.2f words/cycle > budget %.1f" % (w, budget))
print("cosim_spec: %.2f words/cycle <= budget %.1f" % (w, budget))
EOF_ALLOC
rm -f ci_alloc.json

echo "== bench smoke (fig8, small scales) =="
dune exec bench/main.exe -- fig8 --json ci_bench.json
test -s ci_bench.json
grep -q '"experiment": "fig8"' ci_bench.json
# uop-cache counters, host metadata
grep -q '"uop_slow_lookups"' ci_bench.json
grep -q '"nproc"' ci_bench.json
grep -q '"ocaml_version"' ci_bench.json

echo "== fig8 cross-engine agreement: every engine retires the same instructions per workload =="
# timings differ run to run; the architectural outcome must not.  Each
# engine-run record lists "workload" before "insns", one key per line.
awk -F': ' '
  /"workload"/ { w = $2; gsub(/[",]/, "", w) }
  /"insns"/ {
    n = $2; sub(/,$/, "", n); runs++
    if ((w in seen) && seen[w] != n) {
      print "insns differ across engines on " w ": " seen[w] " vs " n; bad = 1
    }
    seen[w] = n
  }
  END {
    if (runs == 0) { print "no engine runs in the fig8 smoke"; bad = 1 }
    exit bad
  }' ci_bench.json
rm -f ci_bench.json

echo "== LightSSS smoke (Table I snapshot cost, with the image's object count) =="
dune exec bench/main.exe -- table1 --json ci_table1.json
test -s ci_table1.json
grep -q '"experiment": "table1"' ci_table1.json
# the tables are copy-on-write and stay out of the image: what is left
# is the in-flight pipeline, whose uops are ROB-resident rows that point
# only at the predecoded instructions of in-flight uops, and the commit
# slots and REF commit records, blanked once checked (507 blocks; 1,131
# with a record and boxes per in-flight uop, 1,140 unblanked, 1,118
# before the slots; the bound was 2,000 for 1,792 before)
awk -F': ' '
  /"lightsss_image_objects"/ { n = $2; sub(/,$/, "", n); seen = 1 }
  END {
    if (!seen) { print "no lightsss_image_objects in the table1 smoke"; exit 1 }
    if (n + 0 > 1150) { print "LightSSS image has " n " objects (> 1150)"; exit 1 }
  }' ci_table1.json
grep -q '"table_cow_faults"' ci_table1.json
grep -q '"table_pages_shared"' ci_table1.json
rm -f ci_table1.json

echo "== checkpoints smoke (BBV profile -> SimPoint selection -> restored samples, as recorded) =="
dune exec bench/main.exe -- checkpoints > ci_checkpoints.txt
# the speed lines carry host wall clock; the interval count, the
# selection and every restored sample's IPC must not move
grep -E '^intervals: |@interval' ci_checkpoints.txt > ci_checkpoints_model.txt
cat > ci_checkpoints_expected.txt <<'EOF_CKPT'
intervals: 6, checkpoints selected: 6
  checkpoint @interval 0    weight 0.17 -> restored, ipc 0.697
  checkpoint @interval 1    weight 0.17 -> restored, ipc 0.563
  checkpoint @interval 2    weight 0.17 -> restored, ipc 0.481
  checkpoint @interval 3    weight 0.17 -> restored, ipc 0.452
  checkpoint @interval 4    weight 0.17 -> restored, ipc 0.468
  checkpoint @interval 5    weight 0.17 -> restored, ipc 0.514
EOF_CKPT
diff ci_checkpoints_expected.txt ci_checkpoints_model.txt
rm -f ci_checkpoints.txt ci_checkpoints_model.txt ci_checkpoints_expected.txt

echo "== pool and grid tests (fork pool: ordering, crash isolation, timeouts; the grid runner) =="
dune exec test/main.exe -- test pool
dune exec test/main.exe -- test grid

echo "== campaign smoke (3-fault subset; exits non-zero on any escape) =="
dune exec bench/main.exe -- campaign --smoke --json ci_campaign.json
test -s ci_campaign.json
grep -q '"experiment": "campaign"' ci_campaign.json
grep -q '"group": "cell"' ci_campaign.json
grep -q '"group": "summary"' ci_campaign.json
grep -q '"escapes": 0' ci_campaign.json

echo "== campaign smoke under --jobs 2: per-cell verdicts must equal sequential =="
dune exec bench/main.exe -- campaign --smoke --jobs 2 --json ci_campaign_par.json
test -s ci_campaign_par.json
# every campaign record field is deterministic, so the whole JSON
# must be byte-identical to the sequential smoke's
diff ci_campaign.json ci_campaign_par.json

echo "== campaign smoke with --perf: counters/tracers are pure observation =="
dune exec bench/main.exe -- campaign --smoke --perf --json ci_campaign_perf.json
test -s ci_campaign_perf.json
# perf instrumentation must not perturb a single verdict field
diff ci_campaign.json ci_campaign_perf.json

echo "== campaign smoke under MINJIE_PHASE_ORDER=shuffle: phase-1 order cannot move a byte =="
MINJIE_PHASE_ORDER=shuffle:13 dune exec bench/main.exe -- campaign --smoke --json ci_campaign_perm.json
test -s ci_campaign_perm.json
diff ci_campaign.json ci_campaign_perm.json
rm -f ci_campaign_par.json ci_campaign_perf.json ci_campaign_perm.json

echo "== phase-order permutation smoke (two-phase purity: shuffled planners byte-identical) =="
dune exec bin/minjie_cli.exe -- run coremark_like --perf > ci_perm_default.txt
MINJIE_PHASE_ORDER=shuffle:42 dune exec bin/minjie_cli.exe -- run coremark_like --perf > ci_perm_shuffled.txt
# the "simulated ... in ...s" line carries host wall clock; every
# model-visible line (verdict, counters, CPI stack) must match exactly
grep -v '^simulated ' ci_perm_default.txt > ci_perm_default_model.txt
grep -v '^simulated ' ci_perm_shuffled.txt > ci_perm_shuffled_model.txt
diff ci_perm_default_model.txt ci_perm_shuffled_model.txt
rm -f ci_perm_default.txt ci_perm_shuffled.txt ci_perm_default_model.txt ci_perm_shuffled_model.txt

echo "== campaign smoke with the NEMU REF backend at --jobs 2: byte-identical to the sequential ISS REF's =="
MINJIE_REF=nemu dune exec bench/main.exe -- campaign --smoke --jobs 2 --json ci_campaign_nemu.json
test -s ci_campaign_nemu.json
grep -q '"escapes": 0' ci_campaign_nemu.json
# both REFs share one mismatch-message builder and must reach the same
# verdicts, failure cycles and replay windows
diff ci_campaign.json ci_campaign_nemu.json
rm -f ci_campaign.json ci_campaign_nemu.json

echo "== campaign detection pins: the full grid reproduces test/campaign_verdicts.golden =="
# test/test_fault.ml checks the ISS REF in process and the NEMU REF on
# two workers; this checks the other two pairings.  A cell's line is
# its fault, seed, detected, rule, failure and latency cycles, commits
# checked, replay rule and replay window.
grep -v '^#' test/campaign_verdicts.golden > ci_pins_expected.txt
for run in iss:2 nemu:1; do
  MINJIE_REF=${run%:*} dune exec bench/main.exe -- campaign --jobs ${run#*:} \
    --json ci_pins.json >/dev/null
  python3 - ci_pins.json > ci_pins_got.txt <<'EOF_PINS'
import json, sys
for r in json.load(open(sys.argv[1]))["experiments"]:
    if r.get("group") == "cell":
        fields = [r["fault"], r["seed"], r["detected"], r["rule"] or "-",
                  r["failure_cycle"], r["latency_cycles"], r["commits_checked"],
                  r["replay_rule"] or "-", r["replay_window"]]
        print(" ".join(str(f).lower() if isinstance(f, bool) else str(f)
                       for f in fields))
EOF_PINS
  diff ci_pins_expected.txt ci_pins_got.txt || {
    echo "campaign verdicts under MINJIE_REF=$run differ from test/campaign_verdicts.golden"; exit 1; }
done
rm -f ci_pins.json ci_pins_got.txt ci_pins_expected.txt

echo "== chaos smoke (host-fault injection: every schedule recovers the clean verdict) =="
dune exec bench/main.exe -- chaos --smoke --json ci_chaos.json
test -s ci_chaos.json
grep -q '"experiment": "chaos"' ci_chaos.json
grep -q '"group": "schedule"' ci_chaos.json
grep -q '"group": "resume"' ci_chaos.json
grep -q '"all_verdicts_identical": true' ci_chaos.json
if grep -q '"verdict_identical": false' ci_chaos.json; then
  echo "chaos smoke recorded a verdict divergence"; exit 1
fi
rm -f ci_chaos.json

echo "== a malformed MINJIE_* value is a configuration error, refused before any work =="
BENCH=./_build/default/bench/main.exe
CLI=./_build/default/bin/minjie_cli.exe
# each must exit non-zero, name the variable on stderr, and print no
# cell line and no exception text
check_refused() {
  var=$1; shift
  set +e; env "$var=bogus" "$@" >ci_bad.out 2>ci_bad.err; code=$?; set -e
  if [ "$code" = 0 ]; then echo "$var=bogus $*: exited 0"; exit 1; fi
  grep -q "$var" ci_bad.err || { echo "$var=bogus $*: stderr does not name $var"; exit 1; }
  if grep -q 'seed=' ci_bad.out; then echo "$var=bogus $*: a cell ran"; exit 1; fi
  if grep -qi 'exception' ci_bad.out ci_bad.err; then echo "$var=bogus $*: exception text"; exit 1; fi
}
check_refused MINJIE_PHASE_ORDER "$BENCH" campaign --smoke
check_refused MINJIE_REF "$CLI" run coremark_like
rm -f ci_bad.out ci_bad.err

echo "== an unwritable --json path fails before any experiment runs =="
set +e; "$BENCH" table2 --json /nonexistent/x.json >ci_bad.out 2>&1; code=$?; set -e
if [ "$code" = 0 ]; then echo "--json /nonexistent/x.json: exited 0"; exit 1; fi
if grep -q 'Table II' ci_bad.out; then echo "--json /nonexistent/x.json: Table II ran"; exit 1; fi
rm -f ci_bad.out

echo "== kill-and-resume smoke (SIGKILL mid-campaign; --resume must reproduce the clean JSON byte for byte) =="
"$BENCH" campaign --json ci_resume_clean.json >/dev/null
rm -f ci_resume.journal ci_resume_killed.json
"$BENCH" campaign --json ci_resume_killed.json --journal ci_resume.journal >/dev/null &
victim=$!
sleep 0.5
kill -9 "$victim" 2>/dev/null || true
set +e; wait "$victim" >/dev/null 2>&1; set -e
test -s ci_resume.journal
"$BENCH" campaign --json ci_resume_done.json --journal ci_resume.journal --resume
# the resumed run's JSON must be byte-identical to the uninterrupted one
diff ci_resume_clean.json ci_resume_done.json
rm -f ci_resume_clean.json ci_resume_killed.json ci_resume_done.json ci_resume.journal

echo "== fuzz smoke (coverage-guided campaign; same seed must be byte-identical) =="
dune exec bench/main.exe -- fuzz --smoke --seed 1 --json ci_fuzz_a.json
test -s ci_fuzz_a.json
grep -q '"experiment": "fuzz"' ci_fuzz_a.json
grep -q '"group": "round"' ci_fuzz_a.json
grep -q '"group": "summary"' ci_fuzz_a.json
dune exec bench/main.exe -- fuzz --smoke --seed 1 --json ci_fuzz_b.json >/dev/null
# coverage buckets, corpus ranking and mutation planning are all
# seed-derived: two same-seed runs must agree byte for byte
diff ci_fuzz_a.json ci_fuzz_b.json
# the pooled grid path must agree with the in-process one byte for byte
dune exec bench/main.exe -- fuzz --smoke --seed 1 --jobs 2 --json ci_fuzz_par.json >/dev/null
diff ci_fuzz_a.json ci_fuzz_par.json
rm -f ci_fuzz_a.json ci_fuzz_b.json ci_fuzz_par.json
# the CLI front-end shares the determinism contract
./_build/default/bin/minjie_cli.exe fuzz --smoke --seed 1 > ci_fuzz_cli_a.txt
./_build/default/bin/minjie_cli.exe fuzz --smoke --seed 1 > ci_fuzz_cli_b.txt
diff ci_fuzz_cli_a.txt ci_fuzz_cli_b.txt
rm -f ci_fuzz_cli_a.txt ci_fuzz_cli_b.txt

echo "== fuzz kill-and-resume smoke (SIGKILL mid-round; --resume must reproduce the clean JSON byte for byte) =="
"$BENCH" fuzz --json ci_fuzz_clean.json >/dev/null
rm -f ci_fuzz.journal ci_fuzz_killed.json
"$BENCH" fuzz --json ci_fuzz_killed.json --journal ci_fuzz.journal >/dev/null &
victim=$!
sleep 0.5
kill -9 "$victim" 2>/dev/null || true
set +e; wait "$victim" >/dev/null 2>&1; set -e
test -s ci_fuzz.journal
"$BENCH" fuzz --json ci_fuzz_done.json --journal ci_fuzz.journal --resume
# journaled execs replay, the rest recompute: same bytes either way
diff ci_fuzz_clean.json ci_fuzz_done.json
rm -f ci_fuzz_clean.json ci_fuzz_killed.json ci_fuzz_done.json ci_fuzz.journal

echo "== clean shutdown: SIGTERM exits 143 and leaves no orphan workers =="
# the live processes of process group $1, one "pid pgid stat args" line
# each: a worker that exited but is not reaped yet (state Z, listed as
# <defunct>) is no orphan, so it is left out
live_in_group() {
  ps -e -o pid=,pgid=,stat=,args= | awk -v g="$1" '$2 == g && $3 !~ /^Z/'
}
# the victim leads a process group of its own, which its pool workers
# inherit, so the orphan check sees only its workers, never another
# process of the same name on the host
setsid "$BENCH" campaign --jobs 2 --json ci_term.json >/dev/null &
victim=$!
# signal it mid-campaign, once a pool worker has forked: the whole
# grid takes about half a second, so a fixed sleep can land after it
i=0
while [ "$(pgrep -g "$victim" | wc -l)" -lt 2 ] && [ "$i" -lt 500 ]; do
  sleep 0.01; i=$((i + 1))
done
kill -TERM "$victim"
set +e; wait "$victim"; code=$?; set -e
if [ "$code" != 143 ]; then
  echo "SIGTERM exit code was $code, wanted 143"; exit 1
fi
sleep 0.3
if [ -n "$(live_in_group "$victim")" ]; then
  echo "orphan bench workers survived SIGTERM:"
  live_in_group "$victim"
  exit 1
fi
rm -f ci_term.json

echo "== topdown smoke (CPI stacks must sum to measured cycles) =="
dune exec bench/main.exe -- topdown --smoke --json ci_topdown.json
test -s ci_topdown.json
grep -q '"experiment": "topdown"' ci_topdown.json
grep -q '"group": "stack"' ci_topdown.json
grep -q '"invariant_holds": true' ci_topdown.json
rm -f ci_topdown.json

echo "== pipetrace smoke (well-formed Konata records) =="
dune exec bin/minjie_cli.exe -- run coremark_like --pipetrace ci_trace.kanata >/dev/null
test -s ci_trace.kanata
head -1 ci_trace.kanata | grep -q '^Kanata'
grep -q '^C=' ci_trace.kanata
grep -q '^I' ci_trace.kanata
grep -q '^S' ci_trace.kanata
grep -q '^R' ci_trace.kanata
# every record opened (I) is closed by a retire (R)
test "$(grep -c '^I' ci_trace.kanata)" = "$(grep -c '^R' ci_trace.kanata)"
rm -f ci_trace.kanata

echo "== cosim smoke (ISS REF vs NEMU REF throughput) =="
dune exec bench/main.exe -- cosim --json ci_cosim.json
test -s ci_cosim.json
grep -q '"experiment": "cosim"' ci_cosim.json
grep -q '"group": "run"' ci_cosim.json
grep -q '"group": "speedup"' ci_cosim.json
grep -q '"ref_step_speedup"' ci_cosim.json
grep -q '"geomean_ref_step_speedup"' ci_cosim.json
rm -f ci_cosim.json

echo "== serve smoke (warm-state service: served output byte-identical to cold, clean shutdown, no orphans) =="
SOCK=./ci_serve.sock
rm -f "$SOCK"
# in a process group of its own, as the bench victim above
setsid "$CLI" serve --socket "$SOCK" --quiet >/dev/null 2>&1 &
server=$!
# wait for the server to answer a ping (it assembles nothing at boot,
# so this converges in well under a second)
ready=0
for _ in $(seq 1 100); do
  if "$CLI" submit ping --socket "$SOCK" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
if [ "$ready" != 1 ]; then echo "serve never answered a ping"; exit 1; fi
# every served job's stdout must be byte-identical to the cold-start
# path's (`submit --cold` executes in-process against a fresh cache);
# the run is submitted twice so the second reply exercises the warm
# cache, not just the protocol
"$CLI" submit run --socket "$SOCK" -w coremark_like --max-cycles 200000 >ci_serve_run.txt 2>/dev/null
"$CLI" submit run --socket "$SOCK" -w coremark_like --max-cycles 200000 >ci_serve_run_warm.txt 2>/dev/null
"$CLI" submit run --cold             -w coremark_like --max-cycles 200000 >ci_serve_run_cold.txt 2>/dev/null
diff ci_serve_run.txt ci_serve_run_cold.txt
diff ci_serve_run_warm.txt ci_serve_run_cold.txt
"$CLI" submit campaign --socket "$SOCK" --faults csr-mtvec-corrupt,rob-commit-reorder,lsu-sb-drop --seeds 1 >ci_serve_camp.txt 2>/dev/null
"$CLI" submit campaign --cold             --faults csr-mtvec-corrupt,rob-commit-reorder,lsu-sb-drop --seeds 1 >ci_serve_camp_cold.txt 2>/dev/null
diff ci_serve_camp.txt ci_serve_camp_cold.txt
grep -q 'escape' ci_serve_camp.txt
"$CLI" submit topdown --socket "$SOCK" -w sjeng_like --max-cycles 200000 >ci_serve_td.txt 2>/dev/null
"$CLI" submit topdown --cold             -w sjeng_like --max-cycles 200000 >ci_serve_td_cold.txt 2>/dev/null
diff ci_serve_td.txt ci_serve_td_cold.txt
# fuzz runs through the isolation pool but stays deterministic, so the
# served reply must still match the cold in-process path byte for byte
"$CLI" submit fuzz --socket "$SOCK" --seed 1 --rounds 2 --cands 3 >ci_serve_fuzz.txt 2>/dev/null
"$CLI" submit fuzz --cold             --seed 1 --rounds 2 --cands 3 >ci_serve_fuzz_cold.txt 2>/dev/null
diff ci_serve_fuzz.txt ci_serve_fuzz_cold.txt
grep -q 'coverage point' ci_serve_fuzz.txt
# the fuzz class reports its own per-class EWMA cost estimate
"$CLI" submit stats --socket "$SOCK" >ci_serve_stats.txt 2>/dev/null
grep -q 'ewma fuzz:' ci_serve_stats.txt
# SIGTERM: supervised shutdown (exit 143), socket unlinked, no orphans
kill -TERM "$server"
set +e; wait "$server"; code=$?; set -e
if [ "$code" != 143 ]; then
  echo "serve SIGTERM exit code was $code, wanted 143"; exit 1
fi
sleep 0.3
if [ -e "$SOCK" ]; then
  echo "serve left its socket behind"; exit 1
fi
if [ -n "$(live_in_group "$server")" ]; then
  echo "orphan serve workers survived SIGTERM:"
  live_in_group "$server"
  exit 1
fi
rm -f ci_serve_run.txt ci_serve_run_warm.txt ci_serve_run_cold.txt \
  ci_serve_camp.txt ci_serve_camp_cold.txt ci_serve_td.txt ci_serve_td_cold.txt \
  ci_serve_fuzz.txt ci_serve_fuzz_cold.txt ci_serve_stats.txt

echo "CI OK"
