package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/pmu"
	"repro/internal/symtab"
)

// TestDecodeTruncatedGoldenFixture cuts the checked-in clean fixture at
// several depths and requires every cut to fail with an error that (a)
// wraps io.ErrUnexpectedEOF so callers can classify it, and (b) names the
// byte offset where the file ended, so an operator staring at a torn dump
// knows how much of it is salvageable.
func TestDecodeTruncatedGoldenFixture(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("testdata", "clean.fltrc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 64 {
		t.Fatalf("fixture implausibly small: %d bytes", len(full))
	}
	cuts := []int{
		0,             // empty file
		4,             // mid-magic
		12,            // mid-freq
		18,            // mid-symbol-count
		len(full) / 3, // somewhere inside the records
		len(full) / 2, //
		len(full) - 1, // one byte short
		len(full) * 9 / 10,
	}
	for _, cut := range cuts {
		_, err := Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("cut at %d/%d: decode accepted the truncation", cut, len(full))
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: error does not wrap io.ErrUnexpectedEOF: %v", cut, err)
			continue
		}
		// The reported offset must be the actual end of the input: every
		// byte before the cut was consumable, nothing after it exists.
		var off int
		if _, serr := fmt.Sscanf(errSuffix(err.Error(), "truncated at byte "), "%d", &off); serr != nil {
			t.Errorf("cut at %d: error lacks a byte offset: %v", cut, err)
			continue
		}
		if off != cut {
			t.Errorf("cut at %d: error reports offset %d: %v", cut, off, err)
		}
	}
	// Un-truncated, the fixture still decodes (the golden pair pins its
	// contents elsewhere; this guards the fixture itself).
	if _, err := Decode(bytes.NewReader(full)); err != nil {
		t.Fatalf("clean fixture no longer decodes: %v", err)
	}
}

// TestDecodeStreamTruncationMatchesDecode pins that the incremental path
// classifies truncation identically to the materializing path.
func TestDecodeStreamTruncationMatchesDecode(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("testdata", "clean.fltrc"))
	if err != nil {
		t.Fatal(err)
	}
	cut := len(full) * 2 / 3
	_, dErr := Decode(bytes.NewReader(full[:cut]))
	_, sErr := DecodeStream(bytes.NewReader(full[:cut]), nil,
		func(Marker) error { return nil }, func(pmu.Sample) error { return nil })
	if dErr == nil || sErr == nil {
		t.Fatalf("truncation accepted: Decode=%v DecodeStream=%v", dErr, sErr)
	}
	if !errors.Is(sErr, io.ErrUnexpectedEOF) {
		t.Fatalf("DecodeStream error does not wrap io.ErrUnexpectedEOF: %v", sErr)
	}
	if dErr.Error() != sErr.Error() {
		t.Fatalf("paths disagree:\n Decode:       %v\n DecodeStream: %v", dErr, sErr)
	}
}

// errSuffix returns the part of s after the last occurrence of marker, or
// "" when absent.
func errSuffix(s, marker string) string {
	i := bytes.LastIndex([]byte(s), []byte(marker))
	if i < 0 {
		return ""
	}
	return s[i+len(marker):]
}

// layoutSet has every record kind the format knows: three symbols, markers
// of both kinds, samples with and without a register image (sample 7 with).
func layoutSet() *Set {
	tab := symtab.NewTable()
	tab.MustRegister("alpha", 64)
	tab.MustRegister("b", 4096)
	tab.MustRegister("gamma_fn", 128)
	s := &Set{FreqHz: 2_000_000_000, Syms: tab}
	for i := 0; i < 4; i++ {
		s.Markers = append(s.Markers,
			Marker{Item: uint64(i + 1), TSC: uint64(1000 * i), Core: int32(i % 2), Kind: ItemBegin},
			Marker{Item: uint64(i + 1), TSC: uint64(1000*i + 900), Core: int32(i % 2), Kind: ItemEnd})
	}
	for i := 0; i < 9; i++ {
		sm := pmu.Sample{TSC: uint64(100 * i), IP: 0x400000 + uint64(i), Core: int32(i % 2), Event: pmu.Event(i % 2)}
		if i%3 == 1 {
			sm.Regs = &[pmu.NumRegs]uint64{pmu.R13: uint64(i)}
		}
		s.Samples = append(s.Samples, sm)
	}
	return s
}

// fileField is one field of the encoded file, labelled as a truncation
// error must label it.
type fileField struct {
	label     string
	off, size int
}

// fileLayout lays the set out field by field from the format comment in
// io.go — on purpose not from the walker's own tables, which it checks.
func fileLayout(s *Set) (fields []fileField, size int) {
	add := func(n int, format string, args ...any) {
		fields = append(fields, fileField{fmt.Sprintf(format, args...), size, n})
		size += n
	}
	add(8, "magic")
	add(8, "freq")
	add(4, "symbol count")
	for i, f := range s.Syms.Fns() {
		add(2, "symbol %d name length", i)
		add(len(f.Name), "symbol %d name", i)
		add(8, "symbol %d base", i)
		add(8, "symbol %d size", i)
	}
	add(4, "marker count")
	for i := range s.Markers {
		add(8, "marker %d item", i)
		add(8, "marker %d tsc", i)
		add(4, "marker %d core", i)
		add(1, "marker %d kind", i)
	}
	add(4, "sample count")
	for i, sm := range s.Samples {
		add(8, "sample %d tsc", i)
		add(8, "sample %d ip", i)
		add(4, "sample %d core", i)
		add(1, "sample %d event", i)
		add(1, "sample %d regs flag", i)
		if !pmu.RegsZero(sm.Regs) {
			for j := range sm.Regs {
				add(8, "sample %d reg %d", i, j)
			}
		}
	}
	return fields, size
}

// TestTruncationNamesEveryField cuts the file at the first, second and last
// byte of every field of every record: Decode and DecodeStream (with and
// without callbacks) must return the same error, wrapping
// io.ErrUnexpectedEOF, naming that field and the cut offset.
func TestTruncationNamesEveryField(t *testing.T) {
	set := layoutSet()
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	fields, size := fileLayout(set)
	if size != len(full) {
		t.Fatalf("layout says %d bytes, Encode wrote %d", size, len(full))
	}
	for _, want := range []string{"symbol 2 base", "marker 7 kind", "sample 7 ip", "sample 7 reg 3", "sample 8 regs flag"} {
		if !slices.ContainsFunc(fields, func(f fileField) bool { return f.label == want }) {
			t.Fatalf("the table lacks %q", want)
		}
	}
	for _, f := range fields {
		for _, cut := range []int{f.off, f.off + 1, f.off + f.size - 1} {
			if cut >= f.off+f.size {
				continue // a one-byte field has one cut
			}
			want := fmt.Sprintf("trace: %s: truncated at byte %d: unexpected EOF", f.label, cut)
			_, dErr := Decode(bytes.NewReader(full[:cut]))
			_, sErr := DecodeStream(bytes.NewReader(full[:cut]), func(*symtab.Table) {},
				func(Marker) error { return nil }, func(pmu.Sample) error { return nil })
			_, nErr := DecodeStream(bytes.NewReader(full[:cut]), nil, nil, nil)
			for name, err := range map[string]error{"Decode": dErr, "DecodeStream": sErr, "DecodeStream(nil callbacks)": nErr} {
				if err == nil || err.Error() != want || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("cut at %d, %s:\n got %v\nwant %s", cut, name, err, want)
				}
			}
		}
	}
}

// TestDecodeStreamNilCallbacksSkip: a nil callback skips its stream — the
// records are still read and validated, the other streams still delivered.
func TestDecodeStreamNilCallbacksSkip(t *testing.T) {
	set := layoutSet()
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	freq, err := DecodeStream(bytes.NewReader(buf.Bytes()), nil, nil, nil)
	if err != nil || freq != set.FreqHz {
		t.Fatalf("all-nil decode: freq %d, err %v", freq, err)
	}
	var samples []pmu.Sample
	if _, err := DecodeStream(bytes.NewReader(buf.Bytes()), nil, nil,
		func(sm pmu.Sample) error { samples = append(samples, sm); return nil }); err != nil {
		t.Fatal(err)
	}
	if !sameSamples(samples, set.Samples) {
		t.Errorf("samples-only decode delivered %d samples, want the set's %d, registers included", len(samples), len(set.Samples))
	}
	var markers []Marker
	if _, err := DecodeStream(bytes.NewReader(buf.Bytes()), nil,
		func(m Marker) error { markers = append(markers, m); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(markers, set.Markers) {
		t.Errorf("markers-only decode delivered %d markers, want %d", len(markers), len(set.Markers))
	}
	// Skipped is not unchecked: a bad event in a skipped stream still fails.
	bad := bytes.Clone(buf.Bytes())
	fields, _ := fileLayout(set)
	for _, f := range fields {
		if f.label == "sample 4 event" {
			bad[f.off] = 0xff
		}
	}
	if _, err := DecodeStream(bytes.NewReader(bad), nil, nil, nil); err == nil || err.Error() != "trace: sample 4 has invalid event 255" {
		t.Errorf("skipped sample stream let a bad event through: %v", err)
	}
	// ...and the event is judged before the regs flag after it is read,
	// so a file ending between the two reports the event.
	for _, f := range fields {
		if f.label == "sample 4 regs flag" {
			if _, err := Decode(bytes.NewReader(bad[:f.off])); err == nil || err.Error() != "trace: sample 4 has invalid event 255" {
				t.Errorf("cut after a bad event: %v", err)
			}
		}
	}
}

// TestEncodeMatchesGoldenFixtures: the fixtures were written by the
// field-at-a-time encoder this one replaced; decoding and re-encoding each
// must reproduce the file to the byte.
func TestEncodeMatchesGoldenFixtures(t *testing.T) {
	for _, name := range []string{"clean", "loss10", "markerdrop"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".fltrc"))
		if err != nil {
			t.Fatal(err)
		}
		set, err := Decode(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		if err := set.Encode(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: re-encoded fixture differs from the file (%d vs %d bytes)", name, got.Len(), len(want))
		}
	}
	// The fixtures carry no register images; the layout set does.
	set := layoutSet()
	var a, b bytes.Buffer
	if err := set.Encode(&a); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !sameSamples(back.Samples, set.Samples) || !slices.Equal(back.Markers, set.Markers) || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("layout set does not survive encode → decode → encode")
	}
}

// allocatedBy returns the bytes f allocated (runtime.MemStats.TotalAlloc
// delta; nothing else runs in this package's tests meanwhile).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// plainReader hides a reader's Len method, so Decode cannot tell how many
// bytes remain and takes its doubling path.
type plainReader struct{ io.Reader }

// TestDecodeAllocationBounds: a reader that cannot say how many bytes it
// holds gets slices sized from the declared counts — clamped, then
// doubling — so an honest file costs at most 2.5× its samples' memory
// (append growth from empty cost ≈ 5×), and a header that lies about the
// count cannot allocate far ahead of the bytes behind it.
func TestDecodeAllocationBounds(t *testing.T) {
	const n = 134_000 // two doublings past decodeChunk: the clamp's worst region
	set := &Set{FreqHz: 1, Samples: make([]pmu.Sample, n)}
	for i := range set.Samples {
		set.Samples[i] = pmu.Sample{TSC: uint64(i), IP: uint64(i)}
	}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var got *Set
	var err error
	alloc := allocatedBy(func() { got, err = Decode(plainReader{bytes.NewReader(buf.Bytes())}) })
	if err != nil || !sameSamples(got.Samples, set.Samples) {
		t.Fatalf("decode of %d samples: err %v", n, err)
	}
	if limit := uint64(2.5*n*float64(unsafe.Sizeof(pmu.Sample{}))) + 64<<10; alloc > limit {
		t.Errorf("decoding %d samples allocated %d bytes, want ≤ %d", n, alloc, limit)
	}

	lie := append([]byte(nil), buf.Bytes()[:8+8+4+4]...) // magic, freq, no symbols, no markers
	lie = binary.LittleEndian.AppendUint32(lie, maxCount)
	lie = append(lie, buf.Bytes()[len(lie):len(lie)+100]...) // the honest file's first 100 bytes of samples
	for _, r := range []io.Reader{bytes.NewReader(lie), plainReader{bytes.NewReader(lie)}} {
		alloc = allocatedBy(func() { _, err = Decode(r) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%T: a count of 2^28 over a 100-byte body: %v", r, err)
		}
		if alloc >= 16<<20 {
			t.Errorf("%T: a count of 2^28 over a 100-byte body allocated %d bytes, want < 16 MB", r, alloc)
		}
	}
}

// TestDecodeSizedOnce: a file-backed or in-memory decode of a set the size
// of one local_dataplane round (two cores × 10,000 items, ≈134 k samples,
// one in eight with registers) allocates each section once: at most 1.1×
// the bytes of its markers and samples, where growing the samples from
// decodeChunk by doubling costs ≈2.4×.
func TestDecodeSizedOnce(t *testing.T) {
	const items, samples = 20_000, 134_000
	set := &Set{FreqHz: 2_000_000_000, Syms: symtab.NewTable()}
	fn := set.Syms.MustRegister("f", 4096)
	for i := range items {
		core := int32(i % 2)
		set.Markers = append(set.Markers,
			Marker{Item: uint64(i + 1), TSC: uint64(i * 100), Core: core, Kind: ItemBegin},
			Marker{Item: uint64(i + 1), TSC: uint64(i*100 + 90), Core: core, Kind: ItemEnd})
	}
	regs := &[pmu.NumRegs]uint64{pmu.R13: 7}
	for i := range samples {
		s := pmu.Sample{TSC: uint64(i), IP: fn.Base + uint64(i%4096), Core: int32(i % 2)}
		if i%8 == 0 {
			s.Regs = regs
		}
		set.Samples = append(set.Samples, s)
	}
	path := filepath.Join(t.TempDir(), "round.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Each register block decodes into its own 128-byte array.
	records := uint64(len(set.Markers))*uint64(unsafe.Sizeof(Marker{})) +
		uint64(len(set.Samples))*uint64(unsafe.Sizeof(pmu.Sample{})) + samples/8*uint64(unsafe.Sizeof(*regs))
	limit := records * 11 / 10
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func() (io.Reader, func())
	}{
		{"file", func() (io.Reader, func()) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			return f, func() { f.Close() }
		}},
		{"bytes.Reader", func() (io.Reader, func()) { return bytes.NewReader(file), func() {} }},
	} {
		r, done := tc.open()
		var got *Set
		alloc := allocatedBy(func() { got, err = Decode(r) })
		done()
		if err != nil || !slices.Equal(got.Markers, set.Markers) || !sameSamples(got.Samples, set.Samples) {
			t.Fatalf("%s: decode differs from the encoded set (err %v)", tc.name, err)
		}
		if alloc > limit {
			t.Errorf("%s: decode allocated %d bytes for %d bytes of records, want ≤ %d", tc.name, alloc, records, limit)
		}
	}
}

// TestDecodeLyingCountFile: a file that declares 2^27 samples but ends
// after a few still fails with the truncation error, and allocates no more
// than the doubling path does over the same bytes — the file's size,
// not its header, decides what is allocated ahead of the records.
func TestDecodeLyingCountFile(t *testing.T) {
	set := &Set{FreqHz: 1, Samples: []pmu.Sample{{TSC: 1, IP: 2}, {TSC: 3, IP: 4}, {TSC: 5, IP: 6}}}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lie := buf.Bytes()
	binary.LittleEndian.PutUint32(lie[8+8+4+4:], 1<<27) // magic, freq, no symbols, no markers
	path := filepath.Join(t.TempDir(), "lie.trace")
	if err := os.WriteFile(path, lie, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fileAlloc := allocatedBy(func() { _, err = Decode(f) })
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "sample 3 tsc: truncated at byte") {
		t.Fatalf("a count of 2^27 over three samples: %v", err)
	}
	plainAlloc := allocatedBy(func() { _, err = Decode(plainReader{bytes.NewReader(lie)}) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("doubling path: %v", err)
	}
	// The file path also allocates the Stat result; the rest is the same
	// clamped first chunk.
	if fileAlloc > plainAlloc+1<<10 {
		t.Errorf("file-backed decode allocated %d bytes, the doubling path %d", fileAlloc, plainAlloc)
	}
}
