package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPUSplit is a CPU profile's self time summed by module, in
// nanoseconds. Keys are the names in cpuModules plus "runtime.gc"
// (runtime self time under a collector frame), "runtime" and "other".
// The values add up to Total exactly.
type CPUSplit struct {
	Total    int64
	ByModule map[string]int64
}

// SplitProfile parses a gzipped pprof CPU profile (as written by
// runtime/pprof) and attributes each sample's CPU time to the module of
// its innermost function.
func SplitProfile(gz []byte) (CPUSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return CPUSplit{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return CPUSplit{}, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return CPUSplit{}, err
	}
	split := CPUSplit{ByModule: make(map[string]int64)}
	for _, s := range p.samples {
		names := p.stackNames(s.locs)
		mod := "other"
		if len(names) > 0 {
			mod = ModuleOf(names[0])
		}
		if mod == "runtime" && underCollector(names) {
			mod = "runtime.gc"
		}
		split.ByModule[mod] += s.cpuNS
		split.Total += s.cpuNS
	}
	return split, nil
}

// ModuleOf maps a profile function name to the module it is billed
// to: the first path element under repro/internal/ when that module
// has its own row, "runtime" for the Go runtime, and "other" for
// everything else (standard library, the benchmark itself, other
// repro packages).
func ModuleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/flat.(*LRU[go.shape.struct { ... }]).Find": the path
// ends at the first '.' after the last '/' that precedes any receiver
// or type-parameter bracket.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// underCollector reports whether a stack runs inside the garbage
// collector: a mark worker, an allocation assist, or the background
// sweeper or scavenger.
func underCollector(names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, "runtime.gc") || n == "runtime.bgsweep" || strings.Contains(n, "scaveng") {
			return true
		}
	}
	return false
}

// profile holds the parts of a pprof profile the split needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type sample struct {
	locs  []uint64
	cpuNS int64
}

func (p *profile) stackNames(locs []uint64) []string {
	var names []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if si, ok := p.funcs[f]; ok && si >= 0 && si < int64(len(p.strs)) {
				names = append(names, p.strs[si])
			}
		}
	}
	return names
}

// Field numbers of the profile.proto messages read here.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	valueTypeUnit = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes the protobuf-encoded profile message. Only the
// fields the split needs are kept; the CPU value is the sample value
// whose type has unit "nanoseconds".
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	var units []int64
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var raws []rawSample
	err := walk(b, func(field int, wire int, v uint64, body []byte) error {
		switch field {
		case profSampleType:
			unit := int64(-1)
			err := walk(body, func(f, _ int, v uint64, _ []byte) error {
				if f == valueTypeUnit {
					unit = int64(v)
				}
				return nil
			})
			units = append(units, unit)
			return err
		case profSample:
			var rs rawSample
			err := walk(body, func(f, w int, v uint64, sub []byte) error {
				switch f {
				case sampleLocation:
					return varints(w, v, sub, func(x uint64) { rs.locs = append(rs.locs, x) })
				case sampleValue:
					return varints(w, v, sub, func(x uint64) { rs.vals = append(rs.vals, int64(x)) })
				}
				return nil
			})
			raws = append(raws, rs)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(body, func(f, _ int, v uint64, sub []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return walk(sub, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == lineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			name := int64(-1)
			err := walk(body, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringTable:
			p.strs = append(p.strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu := -1
	for i, u := range units {
		if u >= 0 && u < int64(len(p.strs)) && p.strs[u] == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	for _, rs := range raws {
		if cpu < len(rs.vals) {
			p.samples = append(p.samples, sample{locs: rs.locs, cpuNS: rs.vals[cpu]})
		}
	}
	return p, nil
}

// walk calls fn for each field of a protobuf message: v carries a
// varint or fixed value, body a length-delimited payload.
func walk(b []byte, fn func(field, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
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
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated integer field, packed or not.
func varints(wire int, v uint64, body []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		body = body[n:]
	}
	return nil
}
