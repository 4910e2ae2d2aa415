// Package pprofenc is a dependency-free encoder and decoder for the pprof
// profile.proto format (the format read by `go tool pprof`). The simulator
// uses it to export per-PC attribution as a CPU-profile-shaped file whose
// "functions" are kasm kernels and whose "lines" are kernel PCs, so standard
// pprof tooling (flamegraphs, top, peek, -http) works on simulated cycles and
// energy without any protobuf dependency.
//
// Only the subset of profile.proto that such synthetic profiles need is
// implemented: sample types, samples with location stacks and labels,
// mappings, locations with line info, functions, comments, and the period /
// default-sample-type metadata. The decoder exists so tests can round-trip
// emitted profiles; it accepts both packed and unpacked repeated integer
// fields, mirroring the official parser's leniency.
package pprofenc

import (
	"bytes"
	"compress/gzip"
	"fmt"
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

// --- decoding ---

type dec struct {
	b []byte
	i int
}

func (d *dec) done() bool { return d.i >= len(d.b) }

func (d *dec) varint() (uint64, error) {
	var x uint64
	var shift uint
	for {
		if d.i >= len(d.b) {
			return 0, fmt.Errorf("pprofenc: truncated varint")
		}
		c := d.b[d.i]
		d.i++
		x |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return x, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("pprofenc: varint overflow")
		}
	}
}

func (d *dec) field() (num, wire int, err error) {
	k, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(k >> 3), int(k & 7), nil
}

func (d *dec) bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if uint64(d.i)+n > uint64(len(d.b)) {
		return nil, fmt.Errorf("pprofenc: truncated length-delimited field")
	}
	out := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return out, nil
}

func (d *dec) skip(wire int) error {
	switch wire {
	case 0:
		_, err := d.varint()
		return err
	case 1:
		if d.i+8 > len(d.b) {
			return fmt.Errorf("pprofenc: truncated fixed64")
		}
		d.i += 8
		return nil
	case 2:
		_, err := d.bytes()
		return err
	case 5:
		if d.i+4 > len(d.b) {
			return fmt.Errorf("pprofenc: truncated fixed32")
		}
		d.i += 4
		return nil
	default:
		return fmt.Errorf("pprofenc: unsupported wire type %d", wire)
	}
}

// repeatedUints appends one occurrence of a repeated integer field, handling
// both packed (wire 2) and unpacked (wire 0) encodings.
func (d *dec) repeatedUints(wire int, dst []uint64) ([]uint64, error) {
	switch wire {
	case 0:
		x, err := d.varint()
		if err != nil {
			return dst, err
		}
		return append(dst, x), nil
	case 2:
		raw, err := d.bytes()
		if err != nil {
			return dst, err
		}
		in := dec{b: raw}
		for !in.done() {
			x, err := in.varint()
			if err != nil {
				return dst, err
			}
			dst = append(dst, x)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("pprofenc: bad wire type %d for repeated int", wire)
	}
}

func parseValueType(raw []byte) (typ, unit int64, err error) {
	d := dec{b: raw}
	for !d.done() {
		num, wire, err := d.field()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			x, err := d.varint()
			if err != nil {
				return 0, 0, err
			}
			typ = int64(x)
		case 2:
			x, err := d.varint()
			if err != nil {
				return 0, 0, err
			}
			unit = int64(x)
		default:
			if err := d.skip(wire); err != nil {
				return 0, 0, err
			}
		}
	}
	return typ, unit, nil
}

// rawProfile holds string indices until the table is known.
type rawLabel struct{ key, str, num, numUnit int64 }

// Parse decodes a profile written by Marshal or WriteGzip. Gzip input is
// detected by its magic bytes, so both compressed and raw payloads work.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1F && data[1] == 0x8B {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprofenc: gzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprofenc: gunzip: %w", err)
		}
		data = raw
	}

	var (
		p            Profile
		strs         []string
		stIdx        [][2]int64 // sample_type (type, unit) string indices
		ptIdx        [2]int64
		havePT       bool
		sampleLabels [][]rawLabel
		defIdx       int64
		commentIdx   []int64
		mapName      = map[int]*int64{} // mapping index -> filename idx
		mapBuild     = map[int]*int64{}
		fnIdx        [][3]int64 // per function: name, system name, filename
	)

	d := dec{b: data}
	for !d.done() {
		num, wire, err := d.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			raw, err := d.bytes()
			if err != nil {
				return nil, err
			}
			t, u, err := parseValueType(raw)
			if err != nil {
				return nil, err
			}
			stIdx = append(stIdx, [2]int64{t, u})
		case 2: // sample
			raw, err := d.bytes()
			if err != nil {
				return nil, err
			}
			s, labels, err := parseSample(raw)
			if err != nil {
				return nil, err
			}
			p.Samples = append(p.Samples, s)
			sampleLabels = append(sampleLabels, labels)
		case 3: // mapping
			raw, err := d.bytes()
			if err != nil {
				return nil, err
			}
			m, nameIdx, buildIdx, err := parseMapping(raw)
			if err != nil {
				return nil, err
			}
			p.Mappings = append(p.Mappings, m)
			mapName[len(p.Mappings)-1] = nameIdx
			mapBuild[len(p.Mappings)-1] = buildIdx
		case 4: // location
			raw, err := d.bytes()
			if err != nil {
				return nil, err
			}
			l, err := parseLocation(raw)
			if err != nil {
				return nil, err
			}
			p.Locations = append(p.Locations, l)
		case 5: // function
			raw, err := d.bytes()
			if err != nil {
				return nil, err
			}
			f, idx, err := parseFunction(raw)
			if err != nil {
				return nil, err
			}
			p.Functions = append(p.Functions, f)
			fnIdx = append(fnIdx, idx)
		case 6: // string_table
			raw, err := d.bytes()
			if err != nil {
				return nil, err
			}
			strs = append(strs, string(raw))
		case 10:
			x, err := d.varint()
			if err != nil {
				return nil, err
			}
			p.DurationNanos = int64(x)
		case 11:
			raw, err := d.bytes()
			if err != nil {
				return nil, err
			}
			t, u, err := parseValueType(raw)
			if err != nil {
				return nil, err
			}
			ptIdx = [2]int64{t, u}
			havePT = true
		case 12:
			x, err := d.varint()
			if err != nil {
				return nil, err
			}
			p.Period = int64(x)
		case 13:
			x, err := d.varint()
			if err != nil {
				return nil, err
			}
			commentIdx = append(commentIdx, int64(x))
		case 14:
			x, err := d.varint()
			if err != nil {
				return nil, err
			}
			defIdx = int64(x)
		default:
			if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	str := func(i int64) (string, error) {
		if i < 0 || int(i) >= len(strs) {
			return "", fmt.Errorf("pprofenc: string index %d out of range (table size %d)", i, len(strs))
		}
		return strs[i], nil
	}
	var err error
	for _, ix := range stIdx {
		var vt ValueType
		if vt.Type, err = str(ix[0]); err != nil {
			return nil, err
		}
		if vt.Unit, err = str(ix[1]); err != nil {
			return nil, err
		}
		p.SampleType = append(p.SampleType, vt)
	}
	if havePT {
		if p.PeriodType.Type, err = str(ptIdx[0]); err != nil {
			return nil, err
		}
		if p.PeriodType.Unit, err = str(ptIdx[1]); err != nil {
			return nil, err
		}
	}
	if p.DefaultSampleType, err = str(defIdx); err != nil {
		return nil, err
	}
	for _, ci := range commentIdx {
		c, err := str(ci)
		if err != nil {
			return nil, err
		}
		p.Comments = append(p.Comments, c)
	}
	for i := range p.Mappings {
		if p.Mappings[i].Filename, err = str(*mapName[i]); err != nil {
			return nil, err
		}
		if p.Mappings[i].BuildID, err = str(*mapBuild[i]); err != nil {
			return nil, err
		}
	}
	for i := range p.Functions {
		if p.Functions[i].Name, err = str(fnIdx[i][0]); err != nil {
			return nil, err
		}
		if p.Functions[i].SystemName, err = str(fnIdx[i][1]); err != nil {
			return nil, err
		}
		if p.Functions[i].Filename, err = str(fnIdx[i][2]); err != nil {
			return nil, err
		}
	}
	for si, labels := range sampleLabels {
		for _, rl := range labels {
			var l Label
			if l.Key, err = str(rl.key); err != nil {
				return nil, err
			}
			if l.Str, err = str(rl.str); err != nil {
				return nil, err
			}
			l.Num = rl.num
			if l.NumUnit, err = str(rl.numUnit); err != nil {
				return nil, err
			}
			p.Samples[si].Labels = append(p.Samples[si].Labels, l)
		}
	}
	return &p, nil
}

func parseSample(raw []byte) (Sample, []rawLabel, error) {
	var s Sample
	var labels []rawLabel
	d := dec{b: raw}
	for !d.done() {
		num, wire, err := d.field()
		if err != nil {
			return s, nil, err
		}
		switch num {
		case 1:
			if s.LocationIDs, err = d.repeatedUints(wire, s.LocationIDs); err != nil {
				return s, nil, err
			}
		case 2:
			var vals []uint64
			if vals, err = d.repeatedUints(wire, nil); err != nil {
				return s, nil, err
			}
			for _, v := range vals {
				s.Values = append(s.Values, int64(v))
			}
		case 3:
			lraw, err := d.bytes()
			if err != nil {
				return s, nil, err
			}
			rl, err := parseLabel(lraw)
			if err != nil {
				return s, nil, err
			}
			labels = append(labels, rl)
		default:
			if err := d.skip(wire); err != nil {
				return s, nil, err
			}
		}
	}
	return s, labels, nil
}

func parseLabel(raw []byte) (rawLabel, error) {
	var rl rawLabel
	d := dec{b: raw}
	for !d.done() {
		num, wire, err := d.field()
		if err != nil {
			return rl, err
		}
		x := func() (int64, error) {
			v, err := d.varint()
			return int64(v), err
		}
		var err2 error
		switch num {
		case 1:
			rl.key, err2 = x()
		case 2:
			rl.str, err2 = x()
		case 3:
			rl.num, err2 = x()
		case 4:
			rl.numUnit, err2 = x()
		default:
			err2 = d.skip(wire)
		}
		if err2 != nil {
			return rl, err2
		}
	}
	return rl, nil
}

func parseMapping(raw []byte) (Mapping, *int64, *int64, error) {
	var m Mapping
	nameIdx, buildIdx := new(int64), new(int64)
	d := dec{b: raw}
	for !d.done() {
		num, wire, err := d.field()
		if err != nil {
			return m, nil, nil, err
		}
		var x uint64
		var err2 error
		switch num {
		case 1, 2, 3, 4, 5, 6:
			x, err2 = d.varint()
		default:
			err2 = d.skip(wire)
		}
		if err2 != nil {
			return m, nil, nil, err2
		}
		switch num {
		case 1:
			m.ID = x
		case 2:
			m.MemoryStart = x
		case 3:
			m.MemoryLimit = x
		case 4:
			m.FileOffset = x
		case 5:
			*nameIdx = int64(x)
		case 6:
			*buildIdx = int64(x)
		}
	}
	return m, nameIdx, buildIdx, nil
}

func parseLocation(raw []byte) (Location, error) {
	var l Location
	d := dec{b: raw}
	for !d.done() {
		num, wire, err := d.field()
		if err != nil {
			return l, err
		}
		switch num {
		case 1:
			x, err := d.varint()
			if err != nil {
				return l, err
			}
			l.ID = x
		case 2:
			x, err := d.varint()
			if err != nil {
				return l, err
			}
			l.MappingID = x
		case 3:
			x, err := d.varint()
			if err != nil {
				return l, err
			}
			l.Address = x
		case 4:
			lraw, err := d.bytes()
			if err != nil {
				return l, err
			}
			var ln Line
			ld := dec{b: lraw}
			for !ld.done() {
				lnum, lwire, err := ld.field()
				if err != nil {
					return l, err
				}
				switch lnum {
				case 1:
					x, err := ld.varint()
					if err != nil {
						return l, err
					}
					ln.FunctionID = x
				case 2:
					x, err := ld.varint()
					if err != nil {
						return l, err
					}
					ln.Line = int64(x)
				default:
					if err := ld.skip(lwire); err != nil {
						return l, err
					}
				}
			}
			l.Lines = append(l.Lines, ln)
		default:
			if err := d.skip(wire); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

func parseFunction(raw []byte) (Function, [3]int64, error) {
	var f Function
	var idx [3]int64
	d := dec{b: raw}
	for !d.done() {
		num, wire, err := d.field()
		if err != nil {
			return f, idx, err
		}
		var x uint64
		var err2 error
		switch num {
		case 1, 2, 3, 4, 5:
			x, err2 = d.varint()
		default:
			err2 = d.skip(wire)
		}
		if err2 != nil {
			return f, idx, err2
		}
		switch num {
		case 1:
			f.ID = x
		case 2:
			idx[0] = int64(x)
		case 3:
			idx[1] = int64(x)
		case 4:
			idx[2] = int64(x)
		case 5:
			f.StartLine = int64(x)
		}
	}
	return f, idx, nil
}
