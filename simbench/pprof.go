package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, enough to fold CPU samples by package without any tool or
// module outside the standard library.

// sharePackages are the cpu_share buckets, in report order.
var sharePackages = []string{
	"sim", "core", "shm", "machine", "rma", "dtype", "mpi", "baseline", "srmcoll", "trace",
	"runtime_gc", "runtime_malloc", "other",
}

// cpuShares folds a CPU profile into self-time shares per package. A
// sample's time goes to runtime_gc if any frame is garbage-collector work,
// else to runtime_malloc if any frame is the allocator, else to the
// package of the innermost frame in this module: runtime and standard
// library leaves (memmove, map access, sync.Pool) count for the module
// code that called them. Samples with no module frame count as other.
func cpuShares(gz []byte) (map[string]float64, error) {
	stacks, err := readProfile(gz)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, p := range sharePackages {
		known[p] = true
	}
	shares := map[string]float64{}
	total := 0.0
	for _, s := range stacks {
		b := bucket(s.frames)
		if !known[b] {
			b = "other"
		}
		shares[b] += float64(s.value)
		total += float64(s.value)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

func bucket(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		if isMalloc(f) {
			return "runtime_malloc"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "srmcoll/internal/"):
			pkg := strings.TrimPrefix(f, "srmcoll/internal/")
			if i := strings.IndexAny(pkg, "./"); i > 0 {
				return pkg[:i]
			}
			return "other"
		case strings.HasPrefix(f, "srmcoll."):
			return "srmcoll"
		case strings.HasPrefix(f, "main."):
			return "other"
		}
	}
	return "other"
}

var gcFrames = []string{"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*gcWork)"}

var mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*mheap)"}

func isGC(f string) bool     { return hasAnyPrefix(f, gcFrames) }
func isMalloc(f string) bool { return hasAnyPrefix(f, mallocFrames) }

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// sample is one profile sample: its frames, innermost first, and its last
// value (CPU nanoseconds for a CPU profile).
type sample struct {
	frames []string
	value  int64
}

// readProfile decodes the fields of profile.proto this file needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6);
// Sample.location_id (1), .value (2); Location.id (1), .line (4);
// Line.function_id (1); Function.id (1), .name (2).
func readProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, sample{frames: frames, value: int64(s.values[len(s.values)-1])})
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
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
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// varint decodes one base-128 varint; n is 0 on malformed input.
func varint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
