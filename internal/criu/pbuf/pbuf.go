// Package pbuf implements the protocol-buffers wire format (varint,
// fixed64 and length-delimited fields) used to serialize CRIU-style
// process images. Real CRIU stores its images as protobuf messages
// and its CRIT tool decodes/re-encodes them; this package plays the
// same role for the simulated checkpoint/restore stack.
package pbuf

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// WireType tags the encoding of a field.
type WireType uint8

// Wire types (protobuf-compatible values).
const (
	WireVarint  WireType = 0
	WireFixed64 WireType = 1
	WireBytes   WireType = 2
)

// Codec errors.
var (
	ErrTruncatedMsg = errors.New("pbuf: truncated message")
	ErrBadTag       = errors.New("pbuf: malformed field tag")
	ErrWireType     = errors.New("pbuf: unexpected wire type")
	ErrOverflow     = errors.New("pbuf: varint overflow")
)

// Encoder builds a message. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

func (e *Encoder) tag(field int, wt WireType) {
	e.varint(uint64(field)<<3 | uint64(wt))
}

func (e *Encoder) varint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// Uint emits an unsigned varint field.
func (e *Encoder) Uint(field int, v uint64) {
	e.tag(field, WireVarint)
	e.varint(v)
}

// Bool emits a boolean varint field.
func (e *Encoder) Bool(field int, v bool) {
	if v {
		e.Uint(field, 1)
	} else {
		e.Uint(field, 0)
	}
}

// Fixed64 emits an 8-byte little-endian field.
func (e *Encoder) Fixed64(field int, v uint64) {
	e.tag(field, WireFixed64)
	for i := 0; i < 8; i++ {
		e.buf = append(e.buf, byte(v>>(8*i)))
	}
}

// Bytes emits a length-delimited field.
func (e *Encoder) Bytes(field int, b []byte) {
	e.tag(field, WireBytes)
	e.varint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Chunks emits a length-delimited field whose value is the
// concatenation of parts, without joining them first.
func (e *Encoder) Chunks(field int, parts [][]byte) {
	n := 0
	for _, b := range parts {
		n += len(b)
	}
	e.tag(field, WireBytes)
	e.varint(uint64(n))
	e.buf = slices.Grow(e.buf, n)
	for _, b := range parts {
		e.buf = append(e.buf, b...)
	}
}

// String emits a length-delimited string field.
func (e *Encoder) String(field int, s string) {
	e.tag(field, WireBytes)
	e.varint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Msg emits a nested message built by fn.
func (e *Encoder) Msg(field int, fn func(*Encoder)) {
	var sub Encoder
	fn(&sub)
	e.Bytes(field, sub.buf)
}

// Raw appends pre-encoded fields verbatim (e.g. a message body that
// was encoded separately so it could be checksummed).
func (e *Encoder) Raw(b []byte) {
	e.buf = append(e.buf, b...)
}

// Finish returns the encoded message.
func (e *Encoder) Finish() []byte {
	return e.buf
}

// Decoder iterates the fields of an encoded message.
//
//	d := pbuf.NewDecoder(data)
//	for d.Next() {
//	    switch d.Field() {
//	    case 1: v = d.Uint()
//	    case 2: s = d.String()
//	    default: d.Skip()
//	    }
//	}
//	if err := d.Err(); err != nil { ... }
//
// Each Next must be followed by exactly one value accessor (or Skip).
type Decoder struct {
	buf      []byte
	off      int
	field    int
	wt       WireType
	consumed bool
	err      error
}

// NewDecoder wraps data for decoding.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{buf: data, consumed: true}
}

// Err returns the first decode error encountered.
func (d *Decoder) Err() error { return d.err }

// Field returns the current field number.
func (d *Decoder) Field() int { return d.field }

// Next advances to the next field, returning false at end of input or
// on error.
func (d *Decoder) Next() bool {
	if d.err != nil {
		return false
	}
	if !d.consumed {
		d.Skip()
		if d.err != nil {
			return false
		}
	}
	if d.off >= len(d.buf) {
		return false
	}
	tag, ok := d.readVarint()
	if !ok {
		return false
	}
	d.field = int(tag >> 3)
	d.wt = WireType(tag & 7)
	if d.field == 0 || (d.wt != WireVarint && d.wt != WireFixed64 && d.wt != WireBytes) {
		d.err = fmt.Errorf("%w: field %d wire %d", ErrBadTag, d.field, d.wt)
		return false
	}
	d.consumed = false
	return true
}

func (d *Decoder) readVarint() (uint64, bool) {
	var v uint64
	for shift := 0; ; shift += 7 {
		if shift > 63 {
			d.err = ErrOverflow
			return 0, false
		}
		if d.off >= len(d.buf) {
			d.err = ErrTruncatedMsg
			return 0, false
		}
		b := d.buf[d.off]
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, true
		}
	}
}

// Uint reads the current varint field.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.wt != WireVarint {
		d.err = fmt.Errorf("%w: field %d: want varint, got %d", ErrWireType, d.field, d.wt)
		return 0
	}
	d.consumed = true
	v, _ := d.readVarint()
	return v
}

// Bool reads the current boolean field.
func (d *Decoder) Bool() bool {
	return d.Uint() != 0
}

// Fixed64 reads the current fixed64 field.
func (d *Decoder) Fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.wt != WireFixed64 {
		d.err = fmt.Errorf("%w: field %d: want fixed64, got %d", ErrWireType, d.field, d.wt)
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = ErrTruncatedMsg
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(d.buf[d.off+i]) << (8 * i)
	}
	d.off += 8
	d.consumed = true
	return v
}

// Bytes reads the current length-delimited field. The returned slice
// aliases the input buffer.
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	if d.wt != WireBytes {
		d.err = fmt.Errorf("%w: field %d: want bytes, got %d", ErrWireType, d.field, d.wt)
		return nil
	}
	n, ok := d.readVarint()
	if !ok {
		return nil
	}
	if n > math.MaxInt32 || d.off+int(n) > len(d.buf) {
		d.err = ErrTruncatedMsg
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	d.consumed = true
	return b
}

// String reads the current length-delimited field as a string.
func (d *Decoder) String() string {
	return string(d.Bytes())
}

// Msg decodes the current length-delimited field as a nested message.
func (d *Decoder) Msg(fn func(*Decoder) error) {
	b := d.Bytes()
	if d.err != nil {
		return
	}
	sub := NewDecoder(b)
	if err := fn(sub); err != nil {
		d.err = err
		return
	}
	if sub.err != nil {
		d.err = sub.err
	}
}

// Skip discards the current field's value.
func (d *Decoder) Skip() {
	if d.err != nil {
		return
	}
	switch d.wt {
	case WireVarint:
		d.readVarint()
	case WireFixed64:
		if d.off+8 > len(d.buf) {
			d.err = ErrTruncatedMsg
			return
		}
		d.off += 8
	case WireBytes:
		n, ok := d.readVarint()
		if !ok {
			return
		}
		if n > math.MaxInt32 || d.off+int(n) > len(d.buf) {
			d.err = ErrTruncatedMsg
			return
		}
		d.off += int(n)
	}
	d.consumed = true
}
