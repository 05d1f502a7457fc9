package checkpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// A Campaign is a resumable sweep: a directory holding a manifest that
// records which measurement points have completed, with their results,
// so a killed run restarted with the same configuration skips straight
// past everything already done. Point keys are caller-chosen strings
// (e.g. "fig12/exposed/cmap" or "loadsweep/hidden/csma/4.5Mbps"); the
// manifest is rewritten atomically (temp file + rename) on every
// completion, so a crash can lose at most the in-flight points. All
// methods are safe for concurrent use — sweep workers record
// completions from the worker pool.
type Campaign struct {
	dir string
	mu  sync.Mutex
	m   manifest
}

type manifest struct {
	ConfigHash string                     `json:"config_hash"`
	Done       map[string]json.RawMessage `json:"done"`
}

const manifestName = "manifest.json"

// OpenCampaign opens (or creates) the campaign in dir for the given
// configuration. An existing manifest written under a different
// configuration returns ErrConfigMismatch — silently mixing results
// from two configurations is the one unforgivable failure mode of a
// resumable sweep.
func OpenCampaign(dir, configHash string) (*Campaign, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: campaign dir: %w", err)
	}
	c := &Campaign{dir: dir, m: manifest{ConfigHash: configHash, Done: map[string]json.RawMessage{}}}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		return c, nil
	case err != nil:
		return nil, fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.ConfigHash != configHash {
		return nil, fmt.Errorf("%w: campaign %s was run under config %.12s…, this run is %.12s…", ErrConfigMismatch, dir, m.ConfigHash, configHash)
	}
	if m.Done != nil {
		c.m.Done = m.Done
	}
	return c, nil
}

// Dir returns the campaign directory.
func (c *Campaign) Dir() string { return c.dir }

// Done reports whether key has completed, returning its recorded
// result.
func (c *Campaign) Done(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m.Done[key]
	return r, ok
}

// Keys returns every completed point key, sorted.
func (c *Campaign) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.m.Done))
	for k := range c.m.Done {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Complete records key's result and persists the manifest atomically.
func (c *Campaign) Complete(key string, result any) error {
	enc, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal result for %q: %w", key, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Done[key] = enc
	return c.flush()
}

func (c *Campaign) flush() error {
	data, err := json.MarshalIndent(c.m, "", " ")
	if err != nil {
		return fmt.Errorf("checkpoint: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(c.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, manifestName)); err != nil {
		return fmt.Errorf("checkpoint: install manifest: %w", err)
	}
	return nil
}

// SaveFile installs what save writes at path atomically (temp file +
// rename), so a crash mid-write never leaves a half-written file where a
// resumable checkpoint should be.
func SaveFile(path string, save func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: create: %w", err)
	}
	if err := save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: install: %w", err)
	}
	return nil
}
