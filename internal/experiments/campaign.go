package experiments

import (
	"encoding/json"

	"repro/internal/checkpoint"
	"repro/internal/runner"
)

// resumableMap runs the trial function for every trial t in [0, n)
// whose key(t) the campaign has not yet recorded, returning the full
// result slice in trial order. Trials whose seeds are pure functions of
// their key make this safe: the missing subset of a killed sweep runs
// with exactly the randomness it would have had in a full run, so the
// resumed figure is bit-identical. The manifest stores each trial's
// []FlowResult as encoding/json writes it: Mbps round-trips exactly
// (shortest-representation floats) and the latency recorder marshals
// its full checkpoint state. A nil campaign degrades to a plain
// runner.Map and never calls key. Recorded results that fail to decode
// are re-run rather than trusted.
func resumableMap(camp *checkpoint.Campaign, pool runner.Config, n int, key func(t int) string, run func(t int) []FlowResult) ([][]FlowResult, error) {
	trials := make([][]FlowResult, n)
	var missing []int
	for t := range trials {
		if camp != nil {
			if raw, ok := camp.Done(key(t)); ok && json.Unmarshal(raw, &trials[t]) == nil {
				continue
			}
		}
		missing = append(missing, t)
	}
	// Each worker records its trial the moment it finishes (Campaign is
	// concurrency-safe), so a kill mid-sweep loses at most the trials
	// still in flight. Workers write only their own errs slot.
	errs := make([]error, len(missing))
	ran := runner.Map(pool, len(missing), func(j int) []FlowResult {
		rs := run(missing[j])
		if camp != nil {
			errs[j] = camp.Complete(key(missing[j]), rs)
		}
		return rs
	})
	for j, t := range missing {
		if errs[j] != nil {
			return nil, errs[j]
		}
		trials[t] = ran[j]
	}
	return trials, nil
}
