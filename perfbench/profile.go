package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile by package without the
// pprof library: it decodes just the profile.proto fields it needs
// (samples, locations, functions, the string table) from the gzipped
// protobuf runtime/pprof writes.

// profSample is one decoded stack sample: function names leaf first, and
// its weight (CPU nanoseconds).
type profSample struct {
	stack  []string
	weight int64
}

// decodeProfile parses a gzipped profile.proto into samples.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{weight: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx >= 0 && idx < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkProto calls fn for every field of one protobuf message: v holds a
// varint value, b the bytes of a length-delimited field. Fixed-width
// fields are skipped.
func walkProto(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints returns a repeated varint field's values, whether it arrived
// unpacked (one value in v) or packed (b).
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a symbol name as the Go runtime
// spells it: "breakhammer/internal/dram.(*Device).NextRelease" belongs to
// "breakhammer/internal/dram", "runtime.mallocgc" to "runtime".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a package to its label in the per-layer metrics: the
// module's internal packages by their directory name ("dram"), every
// other package by its import path.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "breakhammer/internal/"); ok {
		return rest
	}
	return pkg
}

// gcRoots are the runtime functions under which garbage-collection work
// runs: background marking, allocation-assist marking and sweeping.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.sweepone":       true,
	"runtime.gcStart":        true,
}

// foldProfile returns, in percent of all sampled CPU time, each layer's
// self time (samples whose leaf frame is in the layer's package) and,
// under the key "runtime_gc", the time spent in garbage collection
// (samples with a GC function anywhere on the stack).
func foldProfile(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	var total, gc int64
	for _, s := range samples {
		total += s.weight
		if len(s.stack) > 0 {
			out[layerOf(packageOf(s.stack[0]))] += float64(s.weight)
		}
		for _, fn := range s.stack {
			if gcRoots[fn] {
				gc += s.weight
				break
			}
		}
	}
	out["runtime_gc"] = float64(gc)
	if total == 0 {
		return out
	}
	for k, v := range out {
		out[k] = v / float64(total) * 100
	}
	return out
}
