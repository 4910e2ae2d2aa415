// Package pprofenc is a dependency-free encoder for the pprof profile.proto
// format (the format read by `go tool pprof`). The simulator uses it to
// export per-PC attribution as a CPU-profile-shaped file whose "functions"
// are kasm kernels and whose "lines" are kernel PCs, so standard pprof
// tooling (flamegraphs, top, peek, -http) works on simulated cycles and
// energy without any protobuf dependency.
//
// Only the subset of profile.proto that such synthetic profiles need is
// implemented: sample types, samples with location stacks and labels,
// mappings, locations with line info, functions, comments, and the period /
// default-sample-type metadata. Repeated integers are written packed.
// `go tool pprof` is the reader: the tests check every field through
// `go tool pprof -raw`.
package pprofenc

import (
	"compress/gzip"
	"io"
)

// ValueType names one sample dimension (e.g. type "cycles", unit "cycles").
type ValueType struct {
	Type string
	Unit string
}

// Label attaches a key/value annotation to a sample. Exactly one of Str or
// Num is meaningful; NumUnit optionally names Num's unit.
type Label struct {
	Key     string
	Str     string
	Num     int64
	NumUnit string
}

// Sample is one weighted stack: LocationIDs lead from leaf to root; Values
// holds one value per Profile.SampleType entry.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
	Labels      []Label
}

// Mapping describes one synthetic "binary" the locations belong to.
type Mapping struct {
	ID          uint64
	MemoryStart uint64
	MemoryLimit uint64
	FileOffset  uint64
	Filename    string
	BuildID     string
}

// Line maps a location to a function and source line.
type Line struct {
	FunctionID uint64
	Line       int64
}

// Location is one address in the synthetic program.
type Location struct {
	ID        uint64
	MappingID uint64
	Address   uint64
	Lines     []Line
}

// Function is one named code unit with a synthetic source file.
type Function struct {
	ID         uint64
	Name       string
	SystemName string
	Filename   string
	StartLine  int64
}

// Profile is an in-memory pprof profile.
type Profile struct {
	SampleType        []ValueType
	Samples           []Sample
	Mappings          []Mapping
	Locations         []Location
	Functions         []Function
	Comments          []string
	DurationNanos     int64
	PeriodType        ValueType
	Period            int64
	DefaultSampleType string
}

// --- encoding ---

// stringTab interns strings into the profile string table. Index 0 is always
// the empty string, as the format requires.
type stringTab struct {
	list []string
	idx  map[string]int
}

func newStringTab() *stringTab {
	return &stringTab{list: []string{""}, idx: map[string]int{"": 0}}
}

func (t *stringTab) intern(s string) int64 {
	if i, ok := t.idx[s]; ok {
		return int64(i)
	}
	i := len(t.list)
	t.list = append(t.list, s)
	t.idx[s] = i
	return int64(i)
}

// buf is a minimal protobuf wire-format writer.
type buf struct{ b []byte }

func (e *buf) varint(x uint64) {
	for x >= 0x80 {
		e.b = append(e.b, byte(x)|0x80)
		x >>= 7
	}
	e.b = append(e.b, byte(x))
}

func (e *buf) tag(field, wire int) { e.varint(uint64(field)<<3 | uint64(wire)) }

// uintField emits a varint field; zero values are skipped (proto3 default).
func (e *buf) uintField(field int, x uint64) {
	if x == 0 {
		return
	}
	e.tag(field, 0)
	e.varint(x)
}

func (e *buf) intField(field int, x int64) { e.uintField(field, uint64(x)) }

func (e *buf) bytesField(field int, data []byte) {
	e.tag(field, 2)
	e.varint(uint64(len(data)))
	e.b = append(e.b, data...)
}

// packedUints emits a packed repeated integer field (wire type 2).
func (e *buf) packedUints(field int, xs []uint64) {
	if len(xs) == 0 {
		return
	}
	var inner buf
	for _, x := range xs {
		inner.varint(x)
	}
	e.bytesField(field, inner.b)
}

func (e *buf) packedInts(field int, xs []int64) {
	if len(xs) == 0 {
		return
	}
	u := make([]uint64, len(xs))
	for i, x := range xs {
		u[i] = uint64(x)
	}
	e.packedUints(field, u)
}

func marshalValueType(v ValueType, tab *stringTab) []byte {
	var e buf
	e.intField(1, tab.intern(v.Type))
	e.intField(2, tab.intern(v.Unit))
	return e.b
}

func marshalLabel(l Label, tab *stringTab) []byte {
	var e buf
	e.intField(1, tab.intern(l.Key))
	if l.Str != "" {
		e.intField(2, tab.intern(l.Str))
	}
	e.intField(3, l.Num)
	if l.NumUnit != "" {
		e.intField(4, tab.intern(l.NumUnit))
	}
	return e.b
}

func marshalSample(s Sample, tab *stringTab) []byte {
	var e buf
	e.packedUints(1, s.LocationIDs)
	e.packedInts(2, s.Values)
	for _, l := range s.Labels {
		e.bytesField(3, marshalLabel(l, tab))
	}
	return e.b
}

func marshalMapping(m Mapping, tab *stringTab) []byte {
	var e buf
	e.uintField(1, m.ID)
	e.uintField(2, m.MemoryStart)
	e.uintField(3, m.MemoryLimit)
	e.uintField(4, m.FileOffset)
	if m.Filename != "" {
		e.intField(5, tab.intern(m.Filename))
	}
	if m.BuildID != "" {
		e.intField(6, tab.intern(m.BuildID))
	}
	return e.b
}

func marshalLocation(l Location, tab *stringTab) []byte {
	var e buf
	e.uintField(1, l.ID)
	e.uintField(2, l.MappingID)
	e.uintField(3, l.Address)
	for _, ln := range l.Lines {
		var le buf
		le.uintField(1, ln.FunctionID)
		le.intField(2, ln.Line)
		e.bytesField(4, le.b)
	}
	return e.b
}

func marshalFunction(f Function, tab *stringTab) []byte {
	var e buf
	e.uintField(1, f.ID)
	e.intField(2, tab.intern(f.Name))
	if f.SystemName != "" {
		e.intField(3, tab.intern(f.SystemName))
	}
	if f.Filename != "" {
		e.intField(4, tab.intern(f.Filename))
	}
	e.intField(5, f.StartLine)
	return e.b
}

// Marshal encodes the profile in the uncompressed profile.proto wire format.
func (p *Profile) Marshal() []byte {
	tab := newStringTab()
	var e buf
	for _, st := range p.SampleType {
		e.bytesField(1, marshalValueType(st, tab))
	}
	for _, s := range p.Samples {
		e.bytesField(2, marshalSample(s, tab))
	}
	for _, m := range p.Mappings {
		e.bytesField(3, marshalMapping(m, tab))
	}
	for _, l := range p.Locations {
		e.bytesField(4, marshalLocation(l, tab))
	}
	for _, f := range p.Functions {
		e.bytesField(5, marshalFunction(f, tab))
	}
	e.intField(10, p.DurationNanos)
	if p.PeriodType != (ValueType{}) {
		e.bytesField(11, marshalValueType(p.PeriodType, tab))
	}
	e.intField(12, p.Period)
	for _, c := range p.Comments {
		e.intField(13, tab.intern(c))
	}
	if p.DefaultSampleType != "" {
		e.intField(14, tab.intern(p.DefaultSampleType))
	}
	// The string table is emitted last: every intern call above has already
	// registered its entry, and protobuf field order is not significant.
	for _, s := range tab.list {
		e.bytesField(6, []byte(s))
	}
	return e.b
}

// WriteGzip writes the profile gzip-compressed, the on-disk form pprof tools
// expect.
func (p *Profile) WriteGzip(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(p.Marshal()); err != nil {
		return err
	}
	return zw.Close()
}
