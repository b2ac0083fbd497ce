// Package profile rolls a runtime/pprof CPU profile up into per-layer
// self time: each sample is charged to the package of its leaf frame
// (the innermost, possibly inlined, function), and packages are mapped
// to the simulator's layers by Layer.
//
// The pprof wire format is a gzipped protocol buffer (profile.proto of
// github.com/google/pprof). This package decodes only the fields the
// roll-up needs, with no dependency beyond the standard library.
package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Layer maps a fully qualified function name to the layer that owns
// it: the package name for repro/internal/<pkg>, "runtime" for the Go
// runtime (GC, scheduler, allocator), and "other" for everything else
// (the standard library, the benchmark itself).
func Layer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return "other"
}

// SelfByLayer decodes a gzipped CPU profile and returns the CPU time
// whose leaf frame lies in each layer, plus the profile's total.
func SelfByLayer(gz []byte) (map[string]time.Duration, time.Duration, error) {
	p, err := parse(gz)
	if err != nil {
		return nil, 0, err
	}
	idx := p.cpuIndex()
	if idx < 0 {
		return nil, 0, errors.New("profile: no cpu/nanoseconds sample type")
	}
	fnName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return nil, 0, fmt.Errorf("profile: function %d names string %d of %d", id, nameIdx, len(p.strings))
		}
		fnName[id] = p.strings[nameIdx]
	}
	out := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range p.samples {
		if idx >= len(s.values) {
			return nil, 0, fmt.Errorf("profile: sample has %d values, want > %d", len(s.values), idx)
		}
		v := time.Duration(s.values[idx])
		total += v
		layer := "other"
		if len(s.locations) > 0 {
			if fns := p.locations[s.locations[0]]; len(fns) > 0 {
				layer = Layer(fnName[fns[0]])
			}
		}
		out[layer] += v
	}
	return out, total, nil
}

type sample struct {
	locations []uint64
	values    []int64
}

// prof holds the decoded subset of a profile.
type prof struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *prof) cpuIndex() int {
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			return i
		}
	}
	return -1
}

func (p *prof) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func parse(gz []byte) (*prof, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &prof{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, st)
		case 2: // sample
			var s sample
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locations, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			if wire != wireBytes {
				return errors.New("profile: string_table entry is not length-delimited")
			}
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// fields walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its payload bytes.
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which encoders may
// write packed (one length-delimited run) or one value per field.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	if wire != wireBytes {
		return fmt.Errorf("profile: repeated varint with wire type %d", wire)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst, b = append(*dst, x), b[n:]
	}
	return nil
}
