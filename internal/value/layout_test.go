package value

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// Rows are most of the heap, so Value's size and pointer count are part of
// its contract: 32 bytes, one pointer word (the string).
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestAccessorParity pins what every accessor returns for every kind,
// including the kinds an accessor is not meant for: the payload words are
// shared between kinds, so a wrong-kind read must not leak another kind's
// payload (a FLOAT's bits through AsInt, BYTES through AsText).
func TestAccessorParity(t *testing.T) {
	cases := []struct {
		name  string
		v     Value
		i     int64
		f     float64
		text  string
		b     bool
		bytes []byte
		goV   any
		str   string
	}{
		{"null", Null, 0, 0, "", false, []byte{}, nil, "NULL"},
		{"int", Int(-7), -7, -7, "", true, []byte{}, int64(-7), "-7"},
		{"int0", Int(0), 0, 0, "", false, []byte{}, int64(0), "0"},
		{"float", Float(2.5), 0, 2.5, "", false, []byte{}, 2.5, "2.5"},
		{"float-neg", Float(-1), 0, -1, "", false, []byte{}, -1.0, "-1"},
		{"text", Text("it's"), 0, 0, "it's", false, []byte{}, "it's", "'it''s'"},
		{"bool-true", Bool(true), 1, 0, "", true, []byte{}, true, "TRUE"},
		{"bool-false", Bool(false), 0, 0, "", false, []byte{}, false, "FALSE"},
		{"bytes", Bytes([]byte{0xAB, 0, 1}), 0, 0, "", false, []byte{0xAB, 0, 1}, []byte{0xAB, 0, 1}, "X'ab0001'"},
		{"bytes-empty", Bytes(nil), 0, 0, "", false, []byte{}, []byte{}, "X''"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := c.v
			if got := v.AsInt(); got != c.i {
				t.Errorf("AsInt = %d, want %d", got, c.i)
			}
			if got := v.AsFloat(); got != c.f {
				t.Errorf("AsFloat = %v, want %v", got, c.f)
			}
			if got := v.AsText(); got != c.text {
				t.Errorf("AsText = %q, want %q", got, c.text)
			}
			if got := v.AsBool(); got != c.b {
				t.Errorf("AsBool = %v, want %v", got, c.b)
			}
			got := v.AsBytes()
			if got == nil || !bytes.Equal(got, c.bytes) {
				t.Errorf("AsBytes = %#v, want %#v", got, c.bytes)
			}
			if g := v.Go(); !reflect.DeepEqual(g, c.goV) {
				t.Errorf("Go = %#v, want %#v", g, c.goV)
			}
			if s := v.String(); s != c.str {
				t.Errorf("String = %q, want %q", s, c.str)
			}
		})
	}
}

func TestAsBytesReturnsCopy(t *testing.T) {
	v := Bytes([]byte{1, 2, 3})
	got := v.AsBytes()
	got[0] = 99
	if again := v.AsBytes(); !bytes.Equal(again, []byte{1, 2, 3}) {
		t.Fatalf("mutating AsBytes' result changed the Value: %v", again)
	}
	g := v.Go().([]byte)
	g[1] = 99
	if again := v.AsBytes(); !bytes.Equal(again, []byte{1, 2, 3}) {
		t.Fatalf("mutating Go's result changed the Value: %v", again)
	}
}

// edgeValues are the payloads most likely to break a packed layout: float
// bit patterns that compare oddly, integer extremes, and byte strings that
// collide with the key codec's escape sequence or with NULL.
func edgeValues() []Value {
	return []Value{
		Float(math.NaN()), Float(math.Copysign(math.NaN(), -1)),
		Float(0), Float(math.Copysign(0, -1)),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
		Int(math.MaxInt64), Int(math.MinInt64), Int(0),
		Bytes([]byte{0}), Bytes([]byte{0, 0xFF, 0}), Bytes([]byte{'a', 0, 'b'}),
		Bytes(nil), Null, Text(""), Text("\x00"),
		Bool(true), Bool(false),
	}
}

// identical reports kind and payload equality, bit-exact for floats (where
// Equal would call NaN equal to anything and -0 equal to +0).
func identical(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return Equal(a, b) && bytes.Equal(a.AsBytes(), b.AsBytes())
}

func TestRowCodecEdgeValues(t *testing.T) {
	row := Row(edgeValues())
	enc := EncodeRow(nil, row)
	got, n, err := DecodeRow(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeRow: %v (n=%d len=%d)", err, n, len(enc))
	}
	for i := range row {
		if !identical(got[i], row[i]) {
			t.Errorf("column %d: got %v (%s), want %v (%s)", i, got[i], got[i].Kind(), row[i], row[i].Kind())
		}
	}
	// The decoded row must not alias the input buffer.
	for i := range enc {
		enc[i] = 0xEE
	}
	for i := range row {
		if !identical(got[i], row[i]) {
			t.Errorf("column %d changed with the input buffer: %v", i, got[i])
		}
	}
}

func TestKeyCodecEdgeValues(t *testing.T) {
	for _, v := range edgeValues() {
		enc := EncodeKey(nil, v)
		got, n, err := DecodeKey(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("DecodeKey(%v): %v (n=%d len=%d)", v, err, n, len(enc))
		}
		want := v
		if v.Kind() == KindFloat && v.AsFloat() == 0 {
			// -0 and +0 are one key (Compare calls them equal), and it
			// decodes as +0.
			want = Float(0)
		}
		if !identical(got, want) {
			t.Errorf("key round trip of %v (%s) = %v (%s)", v, v.Kind(), got, got.Kind())
		}
		for i := range enc {
			enc[i] = 0xEE
		}
		if !identical(got, want) {
			t.Errorf("decoded key %v aliases the input buffer", want)
		}
	}
	if !bytes.Equal(EncodeKey(nil, Float(0)), EncodeKey(nil, Float(math.Copysign(0, -1)))) {
		t.Error("+0 and -0 encode to different keys")
	}
	if bytes.Equal(EncodeKey(nil, Bytes(nil)), EncodeKey(nil, Null)) {
		t.Error("empty BYTES and NULL encode to the same key")
	}
	if Compare(Bytes(nil), Null) <= 0 {
		t.Error("empty BYTES should sort after NULL")
	}
}

// provenanceRow has the shape of an Executions row, the most common row the
// tracer writes: integers, short texts and a bool.
var provenanceRow = Row{
	Int(4242), Int(17), Text("createPost"), Text("R1234"), Text("createPost"),
	Text("wf-1234"), Int(9001), Int(9000), Bool(true), Int(85),
}

// Sinks keep the compiler from eliding the benchmarked calls.
var (
	encodeSink []byte
	decodeSink Row
)

func BenchmarkEncodeRow(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = EncodeRow(buf[:0], provenanceRow)
	}
	encodeSink = buf
}

func BenchmarkDecodeRow(b *testing.B) {
	enc := EncodeRow(nil, provenanceRow)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, _, err := DecodeRow(enc)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = row
	}
}
