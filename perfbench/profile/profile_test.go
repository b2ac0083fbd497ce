package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
	"time"
)

// enc is a minimal protobuf writer for building profile fixtures.
type enc []byte

func (e *enc) key(num, wire int) { *e = binary.AppendUvarint(*e, uint64(num<<3|wire)) }

func (e *enc) varint(num int, v uint64) {
	e.key(num, wireVarint)
	*e = binary.AppendUvarint(*e, v)
}

func (e *enc) bytes(num int, b []byte) {
	e.key(num, wireBytes)
	*e = binary.AppendUvarint(*e, uint64(len(b)))
	*e = append(*e, b...)
}

func (e *enc) packed(num int, vs ...uint64) {
	var p enc
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	e.bytes(num, p)
}

// fixture encodes a CPU profile shaped like runtime/pprof output: two
// sample types, a location with an inlined frame (leaf first), and
// both packed and one-per-field repeated values.
func fixture(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/sm.(*SM).step",
		"repro/internal/sched.(*Scoreboard).ReadyAt",
		"runtime.mallocgc",
		"sort.insertionSort",
		"repro/internal/mem.(*mshrTable).prune",
	}
	var p enc
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var v enc
		v.varint(1, st[0])
		v.varint(2, st[1])
		p.bytes(1, v)
	}
	sample := func(loc uint64, n, ns uint64, packed bool) {
		var s enc
		s.packed(1, loc, 99) // leaf location first, then a caller
		if packed {
			s.packed(2, n, ns)
		} else {
			s.varint(2, n)
			s.varint(2, ns)
		}
		p.bytes(2, s)
	}
	sample(1, 3, 30e6, true)  // sm
	sample(2, 1, 10e6, false) // sched inlined into sm: leaf is sched
	sample(3, 2, 20e6, true)  // runtime
	sample(4, 1, 5e6, true)   // other
	sample(5, 4, 40e6, false) // mem
	loc := func(id uint64, fns ...uint64) {
		var l enc
		l.varint(1, id)
		for _, f := range fns {
			var ln enc
			ln.varint(1, f)
			ln.varint(2, 42)
			l.bytes(4, ln)
		}
		p.bytes(4, l)
	}
	loc(1, 1)
	loc(2, 2, 1)
	loc(3, 3)
	loc(4, 4)
	loc(5, 5)
	loc(99, 1)
	for id := uint64(1); id <= 5; id++ {
		var f enc
		f.varint(1, id)
		f.varint(2, id+4) // names start at string 5
		p.bytes(5, f)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSelfByLayerFixture(t *testing.T) {
	got, total, err := SelfByLayer(fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sm": 30 * time.Millisecond, "sched": 10 * time.Millisecond,
		"runtime": 20 * time.Millisecond, "other": 5 * time.Millisecond,
		"mem": 40 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if total != 105*time.Millisecond {
		t.Errorf("total = %v, want 105ms", total)
	}
}

func TestSelfByLayerRejectsGarbage(t *testing.T) {
	if _, _, err := SelfByLayer([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip input")
	}
}

func TestLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sm.(*SM).step":            "sm",
		"repro/internal/device.(*Device).run":     "device",
		"repro/internal/exec.EvalALU":             "exec",
		"repro/internal/lint/foo.Bar":             "lint",
		"runtime.gcBgMarkWorker":                  "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "other",
		"main.main": "other",
	} {
		if got := Layer(fn); got != want {
			t.Errorf("Layer(%q) = %q, want %q", fn, got, want)
		}
	}
}
