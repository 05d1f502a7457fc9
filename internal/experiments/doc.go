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
// performance trajectory (BENCH_<sha>.json). All experiments fan their
// trials across internal/runner with seeds fixed before dispatch, so
// results are bit-identical at every worker count; the golden-trace
// tier pins the whole stack's behaviour at the bit level.
//
// # One construction path
//
// Every flow run — each figure and sweep trial, the golden traces, the
// scale fixtures and cmapsim's registry-arm microscope — is wired by
// NewFlowSim and nowhere else, so arms, motion (Options.Mobility) and
// engines (FlowSimConfig.Shards; the figures always run serial) compare
// over identical wiring. The two-hop mesh runners of §5.7 are the one
// other place this package attaches stations to a medium.
package experiments
