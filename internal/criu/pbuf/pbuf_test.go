package pbuf

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	var e Encoder
	e.Uint(1, 0)
	e.Uint(2, 127)
	e.Uint(3, 128)
	e.Uint(4, math.MaxUint64)
	e.Bool(8, true)
	e.Bool(9, false)
	e.Fixed64(10, 0xdeadbeefcafef00d)
	e.Bytes(11, []byte{1, 2, 3})
	e.String(12, "hello")
	e.Bytes(13, nil)

	d := NewDecoder(e.Finish())
	want := []struct {
		field int
		check func() bool
	}{
		{1, func() bool { return d.Uint() == 0 }},
		{2, func() bool { return d.Uint() == 127 }},
		{3, func() bool { return d.Uint() == 128 }},
		{4, func() bool { return d.Uint() == math.MaxUint64 }},
		{8, func() bool { return d.Bool() }},
		{9, func() bool { return !d.Bool() }},
		{10, func() bool { return d.Fixed64() == 0xdeadbeefcafef00d }},
		{11, func() bool { return bytes.Equal(d.Bytes(), []byte{1, 2, 3}) }},
		{12, func() bool { return d.String() == "hello" }},
		{13, func() bool { return len(d.Bytes()) == 0 }},
	}
	for _, w := range want {
		if !d.Next() {
			t.Fatalf("Next failed before field %d: %v", w.field, d.Err())
		}
		if d.Field() != w.field {
			t.Fatalf("field = %d, want %d", d.Field(), w.field)
		}
		if !w.check() {
			t.Fatalf("field %d value mismatch (err: %v)", w.field, d.Err())
		}
	}
	if d.Next() {
		t.Fatal("extra field after end")
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
}

func TestNestedMessages(t *testing.T) {
	var e Encoder
	e.Msg(1, func(inner *Encoder) {
		inner.Uint(1, 42)
		inner.Msg(2, func(deep *Encoder) {
			deep.String(1, "deep")
		})
	})
	e.Uint(2, 7)

	d := NewDecoder(e.Finish())
	var got uint64
	var deep string
	for d.Next() {
		switch d.Field() {
		case 1:
			d.Msg(func(inner *Decoder) error {
				for inner.Next() {
					switch inner.Field() {
					case 1:
						got = inner.Uint()
					case 2:
						inner.Msg(func(dd *Decoder) error {
							for dd.Next() {
								deep = dd.String()
							}
							return nil
						})
					}
				}
				return nil
			})
		case 2:
			if d.Uint() != 7 {
				t.Error("outer field wrong")
			}
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if got != 42 || deep != "deep" {
		t.Fatalf("nested decode = %d, %q", got, deep)
	}
}

func TestSkipUnknownFields(t *testing.T) {
	var e Encoder
	e.Uint(1, 5)
	e.Bytes(2, []byte("ignored"))
	e.Fixed64(3, 9)
	e.Uint(4, 6)
	d := NewDecoder(e.Finish())
	var first, last uint64
	for d.Next() {
		switch d.Field() {
		case 1:
			first = d.Uint()
		case 4:
			last = d.Uint()
		default:
			d.Skip()
		}
	}
	if d.Err() != nil || first != 5 || last != 6 {
		t.Fatalf("skip walk: %d %d %v", first, last, d.Err())
	}
}

func TestImplicitSkip(t *testing.T) {
	// Not reading a value before calling Next again must still work.
	var e Encoder
	e.Uint(1, 5)
	e.Uint(2, 6)
	d := NewDecoder(e.Finish())
	if !d.Next() || !d.Next() {
		t.Fatalf("implicit skip failed: %v", d.Err())
	}
	if d.Field() != 2 || d.Uint() != 6 {
		t.Fatal("landed on wrong field")
	}
}

func TestTruncationErrors(t *testing.T) {
	var e Encoder
	e.Uint(1, 300)
	e.Bytes(2, bytes.Repeat([]byte{7}, 100))
	e.Fixed64(3, 1)
	full := e.Finish()
	for n := 1; n < len(full); n++ {
		d := NewDecoder(full[:n])
		for d.Next() {
			switch d.wt {
			case WireVarint:
				d.Uint()
			case WireBytes:
				d.Bytes()
			case WireFixed64:
				d.Fixed64()
			}
		}
		// Either cleanly ended early at a field boundary or errored;
		// must never panic. Field-boundary truncations are allowed to
		// look like clean EOF at tag level; decode of values must not
		// over-read.
		_ = d.Err()
	}
}

func TestWireTypeMismatch(t *testing.T) {
	var e Encoder
	e.Uint(1, 5)
	d := NewDecoder(e.Finish())
	if !d.Next() {
		t.Fatal("Next failed")
	}
	if d.Bytes() != nil || d.Err() == nil {
		t.Fatal("Bytes on varint field did not error")
	}
}

func TestBadTagRejected(t *testing.T) {
	// Field 0 is invalid.
	d := NewDecoder([]byte{0x00})
	if d.Next() {
		t.Fatal("field 0 accepted")
	}
	if d.Err() == nil {
		t.Fatal("no error for field 0")
	}
	// Wire type 5 is invalid here.
	d = NewDecoder([]byte{0x0D})
	if d.Next() || d.Err() == nil {
		t.Fatal("wire type 5 accepted")
	}
}

func TestVarintOverflow(t *testing.T) {
	d := NewDecoder(bytes.Repeat([]byte{0xFF}, 11))
	if d.Next() {
		d.Uint()
	}
	if d.Err() == nil {
		t.Fatal("11-byte varint accepted")
	}
}

// Property: Uint/Bytes/String/Fixed64 round-trip through encode+decode.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, b []byte, s string) bool {
		var e Encoder
		e.Uint(1, u)
		e.Bytes(3, b)
		e.String(4, s)
		e.Fixed64(5, u)
		d := NewDecoder(e.Finish())
		ok := d.Next() && d.Uint() == u &&
			d.Next() && bytes.Equal(d.Bytes(), b) &&
			d.Next() && d.String() == s &&
			d.Next() && d.Fixed64() == u &&
			!d.Next() && d.Err() == nil
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(raw []byte) bool {
		d := NewDecoder(raw)
		for i := 0; d.Next() && i < 1000; i++ {
			switch d.wt {
			case WireVarint:
				d.Uint()
			case WireFixed64:
				d.Fixed64()
			case WireBytes:
				d.Bytes()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
