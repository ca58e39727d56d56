package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the layers the CPU profile is split into, named after
// the muxwise packages (internal/<name>, internal/cluster/epp as epp).
// Two more buckets close the sum: bench (this program's own code) and
// other (standard library and muxwise packages outside the list).
var cpuModules = []string{
	"sim", "gpu", "core", "serve", "cluster", "epp", "kvcache", "metrics",
	"estimator", "roofline", "model", "workload", "obs", "runtime",
}

// funcPackage returns the import path of a profiled function name such as
// "muxwise/internal/cluster/epp.(*Pipeline).Pick": everything up to the
// first dot after the last slash.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isRuntime reports whether fn belongs to the Go runtime: the scheduler,
// the collector, allocation and the map implementation.
func isRuntime(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// frameModule maps one frame to a module, or "" when the frame belongs to
// none (standard library, other muxwise packages): such frames are
// charged to their nearest caller that has one.
func frameModule(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "main" {
		return "bench"
	}
	if rest, ok := strings.CutPrefix(pkg, "muxwise/internal/"); ok {
		if rest == "cluster/epp" {
			return "epp"
		}
		for _, m := range cpuModules {
			if rest == m {
				return m
			}
		}
	}
	return ""
}

// stackModule charges one sampled stack (leaf first) to a module: the Go
// runtime when the leaf is runtime code, otherwise the first frame from
// the leaf up that maps to a module, else "other".
func stackModule(stack []string) string {
	if len(stack) > 0 && isRuntime(stack[0]) {
		return "runtime"
	}
	for _, fn := range stack {
		if m := frameModule(fn); m != "" {
			return m
		}
	}
	return "other"
}

// moduleShares splits a gzipped pprof CPU profile into per-module shares
// of sampled CPU time.
func moduleShares(profile []byte) (map[string]float64, error) {
	stacks, weights, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	var total float64
	out := map[string]float64{}
	for i, st := range stacks {
		out[stackModule(st)] += weights[i]
		total += weights[i]
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// parseProfile decodes the parts of a gzipped profile.proto the module
// split needs: each sample's stack as function names (leaf first,
// inlined frames included) and its last value (CPU nanoseconds).
func parseProfile(data []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location → function IDs, innermost first
		funcNames = map[uint64]int64{}    // function → string table index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); len(vals) > 0 {
						s.val = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	stacks := make([][]string, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		weights[i] = float64(s.val)
	}
	return stacks, weights, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type plus its varint value or its length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, which arrive
// either one varint per field (wire 0) or packed (wire 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
