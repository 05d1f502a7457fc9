package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load under a fixed configuration
// hash. Load must never panic, and must either return a payload whose
// digest is the envelope's and no error, or no payload and one of the
// four typed errors. FuzzRestoreState (internal/experiments) re-stamps
// the digest of what it damages, so the envelope's own checks are
// exercised here.
func FuzzLoad(f *testing.F) {
	hash := ConfigHash("fuzz")
	var buf bytes.Buffer
	if err := Save(&buf, hash, testPayload{Clock: 7, Items: []int{1, 2, 3}, X: 0.5}); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(bytes.Replace(good, fmt.Appendf(nil, `"version":%d`, Version), fmt.Appendf(nil, `"version":%d`, Version-1), 1))
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-3])
	f.Add(good[:1])
	f.Add(bytes.Replace(good, []byte(Magic), []byte("notackpt"), 1))
	typed := []error{ErrTruncated, ErrCorrupt, ErrVersionMismatch, ErrConfigMismatch}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, err := Load(bytes.NewReader(data), hash)
		if err != nil {
			if raw != nil {
				t.Fatalf("payload returned alongside %v", err)
			}
			for _, e := range typed {
				if errors.Is(err, e) {
					return
				}
			}
			t.Fatalf("untyped error %v", err)
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("Load accepted an envelope that does not parse: %v", err)
		}
		if got := payloadSHA(raw); got != env.PayloadSHA {
			t.Fatalf("Load returned a payload with digest %s, envelope records %s", got, env.PayloadSHA)
		}
	})
}
