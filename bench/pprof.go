package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A std-only reader for the gzipped profile.proto that runtime/pprof
// writes, keeping only what CPU attribution needs: each sample's stack
// as function names, innermost first, and its CPU nanoseconds.

// stackSample is one profile sample.
type stackSample struct {
	funcs []string // innermost frame first, inlined frames expanded
	nanos int64
}

var errProto = errors.New("pprof: malformed profile")

// protoField is one decoded field: a varint value or a length-delimited
// payload.
type protoField struct {
	num  int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// readFields walks one message and calls visit per field.
func readFields(b []byte, visit func(f protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || n > uint64(len(rest)) {
				return errProto
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed or
// not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// decodeProfile parses a gzipped CPU profile into stack samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strtab    []string
	)
	err = readFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := readFields(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, g)
				case 2:
					s.values, err = repeatedVarints(s.values, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := readFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return readFields(g.data, func(l protoField) error {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := readFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strtab = append(strtab, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		// runtime/pprof writes [samples/count, cpu/nanoseconds].
		st := stackSample{nanos: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strtab)) {
					return nil, errProto
				}
				st.funcs = append(st.funcs, strtab[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// cpuLayers are the layers a sample can be charged to: the simulator's
// packages, the garbage collector's own goroutines, and the rest.
var cpuLayers = []string{
	"sim", "medium", "phy", "radio", "geo", "csma", "core", "traffic",
	"mobility", "frame", "stats", "topo", "runner", "experiments",
	"runtime_gc", "other",
}

const internalPrefix = "repro/internal/"

// chargeLayer names the layer one stack is charged to: the innermost
// repro/internal/<pkg> frame on it, so math.Pow under radio is radio
// and an allocation under core is core. Stacks with no such frame are
// the collector's background work or other.
func chargeLayer(funcs []string) string {
	gc := false
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if slices.Contains(cpuLayers, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			gc = true
		}
	}
	if gc {
		return "runtime_gc"
	}
	return "other"
}

// cpuShares charges every sample and returns each layer's share of the
// profiled CPU time; the shares sum to one.
func cpuShares(samples []stackSample) map[string]float64 {
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		shares[chargeLayer(s.funcs)] += float64(s.nanos)
		total += float64(s.nanos)
	}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] /= total
		} else {
			shares[l] = 0
		}
	}
	return shares
}
