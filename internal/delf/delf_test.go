package delf

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleFile() *File {
	return &File{
		Type:  TypeExec,
		Name:  "sample",
		Entry: 0x400000,
		Sections: []*Section{
			{Name: SecText, Addr: 0x400000, Size: 16, Perm: PermR | PermX,
				Data: bytes.Repeat([]byte{0x90}, 16)},
			{Name: SecData, Addr: 0x402000, Size: 8, Perm: PermR | PermW,
				Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Name: SecBSS, Addr: 0x403000, Size: 4096, Perm: PermR | PermW},
		},
		Symbols: []Symbol{
			{Name: "_start", Value: 0x400000, Size: 16, Kind: SymFunc, Global: true},
			{Name: "counter", Value: 0x402000, Size: 8, Kind: SymObject},
		},
		Relocs: []Reloc{
			{Off: 0x402000, Kind: RelGOT64, Symbol: "write", Addend: -4},
		},
		Needed: []string{"libc.so"},
	}
}

func filesEqual(a, b *File) bool {
	if a.Type != b.Type || a.Name != b.Name || a.Entry != b.Entry ||
		len(a.Sections) != len(b.Sections) || len(a.Symbols) != len(b.Symbols) ||
		len(a.Relocs) != len(b.Relocs) || len(a.Needed) != len(b.Needed) {
		return false
	}
	for i := range a.Sections {
		x, y := a.Sections[i], b.Sections[i]
		if x.Name != y.Name || x.Addr != y.Addr || x.Size != y.Size ||
			x.Perm != y.Perm || !bytes.Equal(x.Data, y.Data) {
			return false
		}
	}
	for i := range a.Symbols {
		if a.Symbols[i] != b.Symbols[i] {
			return false
		}
	}
	for i := range a.Relocs {
		if a.Relocs[i] != b.Relocs[i] {
			return false
		}
	}
	for i := range a.Needed {
		if a.Needed[i] != b.Needed[i] {
			return false
		}
	}
	return true
}

func TestMarshalRoundTrip(t *testing.T) {
	f := sampleFile()
	data := f.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !filesEqual(f, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", f, got)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) succeeded")
	}
	if _, err := Unmarshal([]byte("ELF?")); err == nil {
		t.Error("Unmarshal(bad magic) succeeded")
	}
	good := sampleFile().Marshal()
	for _, n := range []int{5, 13, 20, len(good) / 2, len(good) - 1} {
		if _, err := Unmarshal(good[:n]); err == nil {
			t.Errorf("Unmarshal(truncated to %d) succeeded", n)
		}
	}
}

// Property: truncating a valid file anywhere never panics and (except
// at full length) never round-trips silently to the same file.
func TestQuickTruncationSafety(t *testing.T) {
	good := sampleFile().Marshal()
	f := func(cut uint16) bool {
		n := int(cut) % len(good)
		_, err := Unmarshal(good[:n])
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSectionLookup(t *testing.T) {
	f := sampleFile()
	s, err := f.Section(SecText)
	if err != nil || s.Addr != 0x400000 {
		t.Fatalf("Section(.text) = %v, %v", s, err)
	}
	if _, err := f.Section(".nope"); err == nil {
		t.Error("Section(.nope) succeeded")
	}
	s, err = f.SectionAt(0x402004)
	if err != nil || s.Name != SecData {
		t.Fatalf("SectionAt(data) = %v, %v", s, err)
	}
	if _, err := f.SectionAt(0x500000); err == nil {
		t.Error("SectionAt(hole) succeeded")
	}
	if !s.Contains(0x402000) || s.Contains(0x402008) {
		t.Error("Contains boundary conditions wrong")
	}
}

func TestSymbolLookup(t *testing.T) {
	f := sampleFile()
	sym, err := f.Symbol("_start")
	if err != nil || sym.Value != 0x400000 {
		t.Fatalf("Symbol(_start) = %v, %v", sym, err)
	}
	if _, err := f.Symbol("missing"); err == nil {
		t.Error("Symbol(missing) succeeded")
	}
}

func TestImageSpanAndTextSize(t *testing.T) {
	f := sampleFile()
	lo, hi := f.ImageSpan()
	if lo != 0x400000 || hi != 0x404000 {
		t.Errorf("ImageSpan = %#x..%#x", lo, hi)
	}
	if f.TextSize() != 16 {
		t.Errorf("TextSize = %d", f.TextSize())
	}
	var empty File
	if lo, hi := empty.ImageSpan(); lo != 0 || hi != 0 {
		t.Error("empty ImageSpan not zero")
	}
	if empty.TextSize() != 0 {
		t.Error("empty TextSize not zero")
	}
}

func TestPermString(t *testing.T) {
	if got := (PermR | PermX).String(); got != "r-x" {
		t.Errorf("Perm r-x = %q", got)
	}
	if got := Perm(0).String(); got != "---" {
		t.Errorf("Perm 0 = %q", got)
	}
	if got := (PermR | PermW | PermX).String(); got != "rwx" {
		t.Errorf("Perm rwx = %q", got)
	}
}

func TestTypeAndRelKindStrings(t *testing.T) {
	if TypeExec.String() != "EXEC" || TypeDyn.String() != "DYN" {
		t.Error("Type strings wrong")
	}
	for k, want := range map[RelKind]string{
		RelPC32: "PC32", RelAbs64: "ABS64", RelPLT32: "PLT32", RelGOT64: "GOT64",
	} {
		if k.String() != want {
			t.Errorf("RelKind %d = %q, want %q", k, k.String(), want)
		}
	}
}
