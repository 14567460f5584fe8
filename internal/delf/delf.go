// Package delf defines the DELF binary format: the ELF-analogue
// container for programs and shared libraries in the simulated system.
//
// A DELF file is either an executable (TypeExec, linked at a fixed
// base) or a position-independent shared library (TypeDyn, linked at
// base 0 and relocated by the loader or — for DynaCut's injected
// signal-handler library — by the image rewriter). Files carry
// sections, a symbol table, and relocation records; executables
// additionally carry a synthesized PLT/GOT so that calls into shared
// libraries go through patchable, wipeable trampolines exactly as on
// Linux/x86.
package delf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies a serialized DELF file.
var Magic = [4]byte{'D', 'E', 'L', 'F'}

// FormatVersion is bumped on incompatible serialization changes.
const FormatVersion = 1

// Type distinguishes executables from shared libraries.
type Type uint8

// File types.
const (
	TypeExec Type = iota + 1
	TypeDyn
)

func (t Type) String() string {
	switch t {
	case TypeExec:
		return "EXEC"
	case TypeDyn:
		return "DYN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Perm is a VMA/section permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Well-known section names.
const (
	SecText   = ".text"
	SecPLT    = ".plt"
	SecROData = ".rodata"
	SecData   = ".data"
	SecGOT    = ".got"
	SecBSS    = ".bss"
)

// Section is a contiguous, uniformly-permissioned region of the file.
// Addr is absolute for executables and base-relative for libraries.
// BSS sections have Size > len(Data) == 0.
type Section struct {
	Name string
	Addr uint64
	Size uint64
	Perm Perm
	Data []byte
}

// End returns the first address past the section.
func (s *Section) End() uint64 { return s.Addr + s.Size }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint64) bool {
	return addr >= s.Addr && addr < s.End()
}

// SymKind distinguishes function symbols from data objects.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota + 1
	SymObject
)

// Symbol is a named address. Value follows the same absolute/relative
// convention as Section.Addr.
type Symbol struct {
	Name   string
	Value  uint64
	Size   uint64
	Kind   SymKind
	Global bool
}

// RelKind enumerates relocation types.
type RelKind uint8

// Relocation kinds.
//
//	RelPC32:  *(int32*)(P) = S + A - (P + 4)   — rel32 branch/LEA fields
//	RelAbs64: *(uint64*)(P) = S + A            — .quad label, mov =label
//	RelPLT32: like RelPC32 but S is the PLT entry synthesized for the
//	          (external) symbol.
//	RelGOT64: the 8-byte slot at P is a GOT entry to be filled with the
//	          runtime absolute address of the symbol, which lives in
//	          another library. Present only in TypeDyn files; resolved
//	          at load/injection time.
const (
	RelPC32 RelKind = iota + 1
	RelAbs64
	RelPLT32
	RelGOT64
)

func (k RelKind) String() string {
	switch k {
	case RelPC32:
		return "PC32"
	case RelAbs64:
		return "ABS64"
	case RelPLT32:
		return "PLT32"
	case RelGOT64:
		return "GOT64"
	default:
		return fmt.Sprintf("RelKind(%d)", uint8(k))
	}
}

// Reloc is one relocation record. Off is the address of the field to
// patch (same absolute/relative convention), Symbol the target name,
// Addend the constant A.
type Reloc struct {
	Off    uint64
	Kind   RelKind
	Symbol string
	Addend int64
}

// File is a parsed or under-construction DELF binary.
type File struct {
	Type     Type
	Name     string // soname / program name
	Entry    uint64 // entry point (TypeExec only)
	Sections []*Section
	Symbols  []Symbol
	// Relocs holds the *unresolved* relocations remaining in the
	// file: for TypeExec this is empty after linking; for TypeDyn it
	// is the dynamic relocation table (RelGOT64 against other
	// libraries, RelAbs64 against the library's own base).
	Relocs []Reloc
	// Needed lists sonames of libraries this file imports from.
	Needed []string
}

// Errors returned by lookup and parsing.
var (
	ErrNoSymbol   = errors.New("delf: symbol not found")
	ErrNoSection  = errors.New("delf: section not found")
	ErrBadFile    = errors.New("delf: malformed file")
	ErrBadVersion = errors.New("delf: unsupported format version")
)

// Section returns the named section.
func (f *File) Section(name string) (*Section, error) {
	for _, s := range f.Sections {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %q in %s", ErrNoSection, name, f.Name)
}

// SectionAt returns the section containing addr.
func (f *File) SectionAt(addr uint64) (*Section, error) {
	for _, s := range f.Sections {
		if s.Contains(addr) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: no section at %#x in %s", ErrNoSection, addr, f.Name)
}

// Symbol returns the named symbol.
func (f *File) Symbol(name string) (Symbol, error) {
	for _, sym := range f.Symbols {
		if sym.Name == name {
			return sym, nil
		}
	}
	return Symbol{}, fmt.Errorf("%w: %q in %s", ErrNoSymbol, name, f.Name)
}

// TextSize returns the size of .text in bytes, 0 if absent.
func (f *File) TextSize() uint64 {
	if s, err := f.Section(SecText); err == nil {
		return s.Size
	}
	return 0
}

// ImageSpan returns the [lo, hi) virtual address range covered by all
// sections.
func (f *File) ImageSpan() (lo, hi uint64) {
	if len(f.Sections) == 0 {
		return 0, 0
	}
	lo = f.Sections[0].Addr
	for _, s := range f.Sections {
		if s.Addr < lo {
			lo = s.Addr
		}
		if s.End() > hi {
			hi = s.End()
		}
	}
	return lo, hi
}

// Marshal serializes the file.
func (f *File) Marshal() []byte {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	w := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	ws := func(s string) {
		w(uint64(len(s)))
		buf.WriteString(s)
	}
	w(FormatVersion)
	buf.WriteByte(byte(f.Type))
	ws(f.Name)
	w(f.Entry)
	w(uint64(len(f.Sections)))
	for _, s := range f.Sections {
		ws(s.Name)
		w(s.Addr)
		w(s.Size)
		buf.WriteByte(byte(s.Perm))
		w(uint64(len(s.Data)))
		buf.Write(s.Data)
	}
	w(uint64(len(f.Symbols)))
	for _, sym := range f.Symbols {
		ws(sym.Name)
		w(sym.Value)
		w(sym.Size)
		buf.WriteByte(byte(sym.Kind))
		if sym.Global {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	w(uint64(len(f.Relocs)))
	for _, r := range f.Relocs {
		w(r.Off)
		buf.WriteByte(byte(r.Kind))
		ws(r.Symbol)
		w(uint64(r.Addend))
	}
	w(uint64(len(f.Needed)))
	for _, n := range f.Needed {
		ws(n)
	}
	return buf.Bytes()
}

// Unmarshal parses a serialized DELF file.
func Unmarshal(data []byte) (*File, error) {
	r := &reader{data: data}
	var magic [4]byte
	copy(magic[:], r.bytes(4))
	if r.err != nil || magic != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFile)
	}
	if v := r.u64(); v != FormatVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	f := &File{Type: Type(r.u8())}
	f.Name = r.str()
	f.Entry = r.u64()
	nsec := r.u64()
	if r.err == nil && nsec > uint64(len(data)) {
		return nil, fmt.Errorf("%w: section count %d", ErrBadFile, nsec)
	}
	for i := uint64(0); i < nsec && r.err == nil; i++ {
		s := &Section{Name: r.str(), Addr: r.u64(), Size: r.u64(), Perm: Perm(r.u8())}
		n := r.u64()
		if r.err == nil && n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section data length %d", ErrBadFile, n)
		}
		s.Data = append([]byte(nil), r.bytes(int(n))...)
		f.Sections = append(f.Sections, s)
	}
	nsym := r.u64()
	if r.err == nil && nsym > uint64(len(data)) {
		return nil, fmt.Errorf("%w: symbol count %d", ErrBadFile, nsym)
	}
	for i := uint64(0); i < nsym && r.err == nil; i++ {
		sym := Symbol{Name: r.str(), Value: r.u64(), Size: r.u64(),
			Kind: SymKind(r.u8()), Global: r.u8() != 0}
		f.Symbols = append(f.Symbols, sym)
	}
	nrel := r.u64()
	if r.err == nil && nrel > uint64(len(data)) {
		return nil, fmt.Errorf("%w: reloc count %d", ErrBadFile, nrel)
	}
	for i := uint64(0); i < nrel && r.err == nil; i++ {
		rel := Reloc{Off: r.u64(), Kind: RelKind(r.u8()), Symbol: r.str(), Addend: int64(r.u64())}
		f.Relocs = append(f.Relocs, rel)
	}
	nneed := r.u64()
	if r.err == nil && nneed > uint64(len(data)) {
		return nil, fmt.Errorf("%w: needed count %d", ErrBadFile, nneed)
	}
	for i := uint64(0); i < nneed && r.err == nil; i++ {
		f.Needed = append(f.Needed, r.str())
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFile, r.err)
	}
	return f, nil
}

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = fmt.Errorf("truncated at offset %d (want %d bytes)", r.off, n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *reader) str() string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.err = fmt.Errorf("string length %d exceeds file size", n)
		return ""
	}
	return string(r.bytes(int(n)))
}
