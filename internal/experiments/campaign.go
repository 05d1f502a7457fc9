package experiments

import (
	"encoding/json"

	"repro/internal/checkpoint"
	"repro/internal/runner"
)

// resumableMap runs the trial function for every key not yet recorded
// in the campaign, returning the full result slice in key order. Trials
// whose seeds are pure functions of their key make this safe: the
// missing subset of a killed sweep runs with exactly the randomness it
// would have had in a full run, so the resumed figure is bit-identical.
// The manifest stores each trial's []FlowResult as encoding/json writes
// it: Mbps round-trips exactly (shortest-representation floats) and the
// latency recorder marshals its full checkpoint state. A nil campaign
// degrades to a plain runner.Map. Recorded results that fail to decode
// are re-run rather than trusted.
func resumableMap(camp *checkpoint.Campaign, pool runner.Config, keys []string, run func(t int) []FlowResult) ([][]FlowResult, error) {
	trials := make([][]FlowResult, len(keys))
	var missing []int
	for t, key := range keys {
		if camp != nil {
			if raw, ok := camp.Done(key); ok && json.Unmarshal(raw, &trials[t]) == nil {
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
			errs[j] = camp.Complete(keys[missing[j]], rs)
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
