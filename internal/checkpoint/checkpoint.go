package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Magic identifies a checkpoint file; Version is the envelope format
// revision. Bump Version on any incompatible payload change — a resumed
// binary must never misinterpret an old layout silently. Version 2:
// radios stopped listing sub-sensitivity signals in their active sets
// (phy.RadioState.WeakN counts them); a version-1 list restored here
// would depart those signals through the wrong path. Version 3: frames
// are delivered only to radios a station listens on; a version-2 payload
// has every radio in range holding each in-flight signal, and the ones
// nobody listens on would never be departed. Version 4: every layer's
// live state struct is its stored form, so field names, map encodings
// and the payload's component table all changed shape. Version 5: an
// in-flight frame stores only the delivery entries it reached; a
// version-4 frame stores its sender's whole row, and resuming it would
// depart radios it never arrived at. Version 6: a timer is stored as the
// seq of its event and the scheduler carries no cancellation-slot table;
// a version-5 timer is a [slot, gen, at] triple this binary cannot name
// an event by. Version 7: the end-of-signal fan-out also ends the
// sender's transmission, so a frame is one agenda event; a version-6
// agenda holds a separate tx-done event per frame, which this binary
// refuses as an unknown shape. Version 8: both MACs keep their counters
// as mac.Counters, whose keys are not the old per-arm names, and the
// phy.Params a config hash covers lost its five receiver constants.
// Version 9: an in-flight frame no longer stores whether it went to
// every radio (its stored delivery entries already say whom it reached),
// and a CSMA station keeps one dedup map; a version-8 payload carries
// both fields, which this binary would drop unread.
const (
	Magic   = "cmapckpt"
	Version = 9
)

// The typed failure modes of Load. Callers branch with errors.Is; every
// returned error also carries human-readable context.
var (
	// ErrTruncated: the file ends mid-envelope (interrupted write, partial
	// copy). Truncation is reported distinctly from corruption because the
	// fix differs: a truncated checkpoint usually means "use the previous
	// auto-checkpoint", a corrupt one "the storage is lying".
	ErrTruncated = errors.New("checkpoint truncated")
	// ErrCorrupt: the envelope parses but its payload digest (or magic)
	// does not match.
	ErrCorrupt = errors.New("checkpoint corrupt")
	// ErrVersionMismatch: the envelope was written by an incompatible
	// format revision.
	ErrVersionMismatch = errors.New("checkpoint version mismatch")
	// ErrConfigMismatch: the checkpoint was taken under a different
	// configuration than the one trying to resume it.
	ErrConfigMismatch = errors.New("checkpoint config mismatch")
)

// envelope is the on-disk frame around a checkpoint payload.
type envelope struct {
	Magic      string          `json:"magic"`
	Version    int             `json:"version"`
	ConfigHash string          `json:"config_hash"`
	PayloadSHA string          `json:"payload_sha256"`
	Payload    json.RawMessage `json:"payload"`
}

// ConfigHash derives the configuration fingerprint stored in (and
// demanded from) every checkpoint: SHA-256 over the canonical JSON of
// v. encoding/json writes struct fields in declaration order and map
// keys sorted, so equal configurations hash equally across processes.
func ConfigHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Configurations are plain data structs; a marshal failure is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("checkpoint: unhashable config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func payloadSHA(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

// Save writes payload to w inside a versioned envelope stamped with
// configHash. payload is marshalled with encoding/json; components keep
// their state types concrete (never `any`), so the bytes round-trip
// exactly. The bytes are json.Marshal's of the whole envelope, but the
// payload, which json.Marshal has just written compact, takes the place
// of the null the envelope is marshalled with instead of being scanned
// again: a second pass over every byte of a large checkpoint.
func Save(w io.Writer, configHash string, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	head, err := json.Marshal(envelope{
		Magic:      Magic,
		Version:    Version,
		ConfigHash: configHash,
		PayloadSHA: payloadSHA(body),
	})
	if err != nil {
		return fmt.Errorf("checkpoint: marshal envelope: %w", err)
	}
	out := append(bytes.TrimSuffix(head, []byte("null}")), body...)
	out = append(out, "}\n"...)
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	return nil
}

// Load reads an envelope from r, validates magic, version, payload
// digest and configuration hash (in that order), and returns the raw
// payload for the caller to unmarshal into its own state type. A
// mismatch surfaces as one of the typed errors above, and no payload
// bytes are returned alongside an error — a failed load must not leave
// the caller holding partially trusted state.
func Load(r io.Reader, wantConfigHash string) (json.RawMessage, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty file", ErrTruncated)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		if strings.Contains(err.Error(), "unexpected end of JSON input") {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Magic != Magic {
		return nil, fmt.Errorf("%w: magic %q is not %q", ErrCorrupt, env.Magic, Magic)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: file version %d, this binary reads %d", ErrVersionMismatch, env.Version, Version)
	}
	if got := payloadSHA(env.Payload); got != env.PayloadSHA {
		return nil, fmt.Errorf("%w: payload digest %s does not match recorded %s", ErrCorrupt, got[:12], env.PayloadSHA[:min(12, len(env.PayloadSHA))])
	}
	if wantConfigHash != "" && env.ConfigHash != wantConfigHash {
		return nil, fmt.Errorf("%w: checkpoint taken under config %.12s…, resuming under %.12s…", ErrConfigMismatch, env.ConfigHash, wantConfigHash)
	}
	return env.Payload, nil
}
