// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the scaling benchmarks and the offered-load sweep
// that grow the reproduction beyond it.
//
// # Relation to the paper
//
// Each experiment selects topologies from a testbed with the paper's
// constraints (Figure 11), runs the protocol arms the figure compares,
// and returns the same rows or series the paper reports:
//
//   - RunCalibration — §4.2's single-link sanity check.
//   - ExposedTerminals — Figure 12 (§5.2), the headline ≈2× gain.
//   - InRangeSenders — Figure 13 (§5.3).
//   - HiddenInterferers — Figure 14 and the §5.4 derived numbers.
//   - HiddenTerminals — Figure 15 (§5.5).
//   - HeaderTrailer — Figure 16, header/trailer salvage CDFs.
//   - AccessPoint — Figures 17+18 (§5.6).
//   - HeaderTrailerVsSenders — Figure 19.
//   - VariableBitRates — Figure 20 (§5.8).
//   - Mesh — the §5.7 content-dissemination experiment.
//
// # Beyond the paper
//
// OfferedLoad sweeps per-flow offered load under pluggable arrival
// processes (internal/traffic), reporting goodput, p50/p95/p99 latency,
// Jain fairness and tail drops for CMAP versus carrier sense on exposed
// and hidden pairs — the unsaturated regimes the follow-on literature
// analyses. ScaleBenchmarks and the 50/200/1000-node suites track the
// performance trajectory (BENCH_<sha>.json).
//
// # One construction path
//
// Every simulated flow figure is a list of trials, each a testbed, its
// flows, an arm, an Options point and a seed fixed by the figure's own
// formula, run by one fan-out across internal/runner and folded in list
// order: the calibration, every pair figure and sweep (Figures 12, 13,
// 15 and 20 and the CS-threshold, staleness and load sweeps, one
// PairExperiment per sweep point), Figures 14 and 17–19 and the screen
// grid. PredictFigure folds the simulated figure's (pair, arm) list
// through the oracle instead. Results are bit-identical at every worker
// count; the golden-trace tier pins the whole stack's behaviour at the
// bit level.
//
// Every flow run — each figure and sweep trial, the golden traces, the
// scale fixtures and cmapsim's registry-arm microscope — is wired by
// NewFlowSim and nowhere else, on one scheduler and one medium, so arms
// and motion (Options.Mobility) compare over identical wiring. The two-hop mesh runners of §5.7, whose relays
// are not flows, are the one other place this package fans out trials
// or attaches stations to a medium.
package experiments
