package kernel

// FuzzMemoryTLB is the software TLB's differential test. Both engines
// share the Memory accessors, so lockstep cannot catch a TLB bug. Here
// two identically built memories run the same decoded operations:
// memory A through the guest accessors (ReadU64, WriteU64, ReadU8,
// WriteU8, fetch), memory B through the slow path (ReadGuest,
// WriteGuest), and both through the same host operations (CloneCoW,
// SetPage, FlipBits, Write, Map, SharePage) and
// block-cache recordings. After every operation the two must agree on
// results and error classes, every page's bytes, the shared page count, the cached blocks and the CoW
// sibling's bytes, and every page slice handed out by SharePage or
// SetPage must still hold the bytes it had then.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
)

// tlbFuzzPages are the pages an operation can address: a run of eight,
// two of them unmapped, and two more that share TLB slots with the
// first two.
var tlbFuzzPages = [...]uint64{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x10 + tlbSize, 0x11 + tlbSize}

// TLB fuzz operations, one per 5-byte record: op, page, offset (two
// bytes, little-endian) and value.
const (
	tlbOpLoad64 = iota
	tlbOpStore64
	tlbOpLoad8
	tlbOpStore8
	tlbOpFetch
	tlbOpCloneCoW
	tlbOpSiblingStore
	tlbOpSetPage
	tlbOpFlipBits
	tlbOpWrite
	tlbOpMap
	tlbOpRecord   // start a block recording at addr, or extend the open one
	tlbOpInsert   // cache the open recording
	tlbOpDispatch // look up every cached block
	tlbOpShare    // take a page by reference, as a dump does
	tlbOps
)

func tlbFuzzOp(op int, page byte, off uint16, val byte) []byte {
	return []byte{byte(op), page, byte(off), byte(off >> 8), val}
}

func tlbFuzzMemory(t *testing.T) *Memory {
	m := newMemory()
	rw, rwx := delf.PermR|delf.PermW, delf.PermR|delf.PermW|delf.PermX
	for _, v := range []VMA{
		{Start: 0x10 * PageSize, End: 0x13 * PageSize, Perm: rw},
		{Start: 0x13 * PageSize, End: 0x14 * PageSize, Perm: delf.PermR},
		{Start: 0x14 * PageSize, End: 0x16 * PageSize, Perm: rwx},
		{Start: tlbFuzzPages[8] * PageSize, End: (tlbFuzzPages[9] + 1) * PageSize, Perm: rw},
	} {
		if err := m.Map(v); err != nil {
			t.Fatal(err)
		}
	}
	m.blockCacheOf()
	return m
}

func errClass(err error) string {
	for _, e := range []error{ErrUnmapped, ErrPerm, ErrVMAOverlap} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	if err != nil {
		return "other"
	}
	return ""
}

// refFetch is fetch's slow-path reference: execute permission on the
// first byte, then bytes while they are mapped.
func refFetch(m *Memory, addr uint64, buf []byte) (int, error) {
	if err := m.checkPerm(addr, 1, delf.PermX); err != nil {
		return 0, err
	}
	n := 0
	for ; n < len(buf); n++ {
		if _, ok := m.VMAAt(addr + uint64(n)); !ok {
			break
		}
		b, err := m.Read(addr+uint64(n), 1)
		if err != nil {
			return n, err
		}
		buf[n] = b[0]
	}
	return n, nil
}

// tlbFuzzSide is one memory under test, its CoW sibling, its open
// block recording and the page slices it shares with an image.
type tlbFuzzSide struct {
	mem, sib *Memory
	rec      *block
	held     []heldPage
}

// heldPage is a page slice shared with the memory and the bytes it must
// keep.
type heldPage struct{ page, want []byte }

// hold keeps the newest 16 shared pages for the checks.
func (s *tlbFuzzSide) hold(page []byte) {
	if page == nil {
		return
	}
	if len(s.held) == 16 {
		s.held = s.held[1:]
	}
	s.held = append(s.held, heldPage{page, bytes.Clone(page)})
}

func (s *tlbFuzzSide) record(addr uint64) {
	if s.rec == nil {
		s.rec = &block{entry: addr, layout: s.mem.blockCacheOf().layout, wgen: s.mem.wgen, valid: true}
		s.rec.pages, s.rec.gens = s.rec.pageBuf[:0], s.rec.genBuf[:0]
	}
	s.rec.touch(s.mem, addr, maxInstLen)
}

func (s *tlbFuzzSide) insert() {
	if s.rec != nil {
		s.mem.bc.insert(s.mem, s.rec)
		s.rec = nil
	}
}

// samePages reports the first difference between two memories'
// populated pages and their bytes.
func samePages(t *testing.T, what string, a, b *Memory) {
	t.Helper()
	pa, pb := a.PopulatedPages(), b.PopulatedPages()
	if !slices.Equal(pa, pb) {
		t.Fatalf("%s: populated pages %#x, want %#x", what, pa, pb)
	}
	for _, pn := range pa {
		if !bytes.Equal(a.PageDataUnsafe(pn), b.PageDataUnsafe(pn)) {
			t.Fatalf("%s: page %#x bytes differ", what, pn)
		}
	}
}

func FuzzMemoryTLB(f *testing.F) {
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seq( // store, share, store again: the share drops the fast path
		tlbFuzzOp(tlbOpStore64, 0, 8, 1),
		tlbFuzzOp(tlbOpStore64, 0, 16, 2),
		tlbFuzzOp(tlbOpShare, 0, 0, 0),
		tlbFuzzOp(tlbOpStore64, 0, 8, 3),
		tlbFuzzOp(tlbOpShare, 0, 0, 0),
		tlbFuzzOp(tlbOpStore8, 0, 9, 4)))
	f.Add(seq( // a store after a CoW clone must not reach the sibling
		tlbFuzzOp(tlbOpStore64, 1, 0, 1),
		tlbFuzzOp(tlbOpStore64, 1, 0, 2),
		tlbFuzzOp(tlbOpCloneCoW, 0, 0, 0),
		tlbFuzzOp(tlbOpStore64, 1, 0, 3),
		tlbFuzzOp(tlbOpSiblingStore, 1, 8, 4),
		tlbFuzzOp(tlbOpStore8, 1, 8, 5)))
	f.Add(seq( // a recording on a written page; stores while it records
		tlbFuzzOp(tlbOpStore64, 4, 0x100, 1),
		tlbFuzzOp(tlbOpRecord, 4, 0x80, 0),
		tlbFuzzOp(tlbOpStore64, 4, 0x100, 2),
		tlbFuzzOp(tlbOpStore64, 4, 0x100, 3),
		tlbFuzzOp(tlbOpInsert, 0, 0, 0),
		tlbFuzzOp(tlbOpDispatch, 0, 0, 0),
		tlbFuzzOp(tlbOpRecord, 4, 0x80, 0),
		tlbFuzzOp(tlbOpInsert, 0, 0, 0),
		tlbFuzzOp(tlbOpDispatch, 0, 0, 0),
		tlbFuzzOp(tlbOpStore64, 4, 0x100, 4),
		tlbFuzzOp(tlbOpDispatch, 0, 0, 0),
		tlbFuzzOp(tlbOpFetch, 4, 0x80, 0)))
	f.Add(seq( // a store during a recording puts the page back on the fast path
		tlbFuzzOp(tlbOpRecord, 5, 0x80, 0),
		tlbFuzzOp(tlbOpStore64, 5, 0x100, 1),
		tlbFuzzOp(tlbOpInsert, 0, 0, 0),
		tlbFuzzOp(tlbOpStore64, 5, 0x100, 2)))
	f.Add(seq( // host writes and flips after a CoW clone replace the backing
		tlbFuzzOp(tlbOpStore64, 2, 0, 1),
		tlbFuzzOp(tlbOpCloneCoW, 0, 0, 0),
		tlbFuzzOp(tlbOpLoad64, 2, 0, 0),
		tlbFuzzOp(tlbOpFlipBits, 2, 0, 2),
		tlbFuzzOp(tlbOpLoad64, 2, 0, 0),
		tlbFuzzOp(tlbOpCloneCoW, 0, 0, 0),
		tlbFuzzOp(tlbOpLoad8, 2, 1, 0),
		tlbFuzzOp(tlbOpWrite, 2, 0, 3),
		tlbFuzzOp(tlbOpLoad8, 2, 1, 0)))
	f.Add(seq( // a TLB hit still checks the permission
		tlbFuzzOp(tlbOpLoad64, 3, 0, 0),
		tlbFuzzOp(tlbOpStore64, 3, 0, 1),
		tlbFuzzOp(tlbOpStore8, 3, 0, 1),
		tlbFuzzOp(tlbOpFetch, 3, 0, 0),
		tlbFuzzOp(tlbOpFetch, 4, 0, 0),
		tlbFuzzOp(tlbOpFetch, 4, PageSize-3, 0)))
	f.Add(seq( // a mapping where a fetch stopped flushes the block cut short there
		tlbFuzzOp(tlbOpStore64, 5, PageSize-8, 7),
		tlbFuzzOp(tlbOpFetch, 5, PageSize-3, 0),
		tlbFuzzOp(tlbOpRecord, 5, PageSize-3, 0),
		tlbFuzzOp(tlbOpInsert, 0, 0, 0),
		tlbFuzzOp(tlbOpDispatch, 0, 0, 0),
		tlbFuzzOp(tlbOpMap, 6, 0, byte(delf.PermR|delf.PermX)),
		tlbFuzzOp(tlbOpDispatch, 0, 0, 0),
		tlbFuzzOp(tlbOpFetch, 5, PageSize-3, 0),
		tlbFuzzOp(tlbOpLoad8, 6, 0, 0)))
	f.Add(seq( // accesses and fetches across page and mapping boundaries
		tlbFuzzOp(tlbOpStore64, 0, PageSize-4, 7),
		tlbFuzzOp(tlbOpLoad64, 0, PageSize-4, 0),
		tlbFuzzOp(tlbOpStore64, 2, PageSize-2, 7),
		tlbFuzzOp(tlbOpFetch, 5, PageSize-3, 0),
		tlbFuzzOp(tlbOpFetch, 4, PageSize-3, 0),
		tlbFuzzOp(tlbOpLoad8, 6, 0, 0)))
	f.Add(seq( // pages sharing a TLB slot; layout and backing changes
		tlbFuzzOp(tlbOpStore64, 0, 0, 1),
		tlbFuzzOp(tlbOpStore64, 8, 0, 2),
		tlbFuzzOp(tlbOpStore64, 0, 0, 3),
		tlbFuzzOp(tlbOpMap, 7, 0, byte(delf.PermR)),
		tlbFuzzOp(tlbOpStore64, 0, 0, 4),
		tlbFuzzOp(tlbOpStore64, 7, 0, 4),
		tlbFuzzOp(tlbOpLoad64, 7, 0, 0),
		tlbFuzzOp(tlbOpStore64, 0, 0, 5),
		tlbFuzzOp(tlbOpSetPage, 0, 0, 6),
		tlbFuzzOp(tlbOpStore8, 0, 1, 7),
		tlbFuzzOp(tlbOpFlipBits, 0, 1, 8),
		tlbFuzzOp(tlbOpWrite, 0, 2, 9),
		tlbFuzzOp(tlbOpStore8, 0, 3, 10),
		tlbFuzzOp(tlbOpMap, 0, 0, byte(delf.PermR|delf.PermW)),
		tlbFuzzOp(tlbOpStore8, 0, 3, 11),
		tlbFuzzOp(tlbOpMap, 6, 0, byte(delf.PermR|delf.PermW)),
		tlbFuzzOp(tlbOpStore8, 6, 3, 12),
		tlbFuzzOp(tlbOpLoad64, 0, 0, 0)))
	f.Add(seq( // stores, writes and flips after a dump shared the pages
		tlbFuzzOp(tlbOpStore64, 0, 0, 1),
		tlbFuzzOp(tlbOpStore64, 3, 0, 1),
		tlbFuzzOp(tlbOpShare, 0, 0, 0),
		tlbFuzzOp(tlbOpShare, 3, 0, 0),
		tlbFuzzOp(tlbOpStore64, 0, 0, 2),
		tlbFuzzOp(tlbOpStore8, 0, 9, 3),
		tlbFuzzOp(tlbOpShare, 0, 0, 0),
		tlbFuzzOp(tlbOpWrite, 0, 5, 4),
		tlbFuzzOp(tlbOpShare, 0, 0, 0),
		tlbFuzzOp(tlbOpFlipBits, 0, 7, 5),
		tlbFuzzOp(tlbOpSetPage, 3, 0, 6),
		tlbFuzzOp(tlbOpFlipBits, 3, 7, 7),
		tlbFuzzOp(tlbOpMap, 6, 0, byte(delf.PermR|delf.PermW)),
		tlbFuzzOp(tlbOpStore8, 3, 1, 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		a := &tlbFuzzSide{mem: tlbFuzzMemory(t)}
		b := &tlbFuzzSide{mem: tlbFuzzMemory(t)}
		for i := 0; i+5 <= len(data) && i < 5*256; i += 5 {
			op, page, off, val := int(data[i])%tlbOps, data[i+1], binary.LittleEndian.Uint16(data[i+2:]), data[i+4]
			pn := tlbFuzzPages[int(page)%len(tlbFuzzPages)]
			addr := pn*PageSize + uint64(off)%PageSize
			word := uint64(val) * 0x0101010101010101
			var le [8]byte
			binary.LittleEndian.PutUint64(le[:], word)
			var got, want any
			switch op {
			case tlbOpLoad64:
				v, err := a.mem.ReadU64(addr)
				got = [2]any{v, errClass(err)}
				bs, err := b.mem.ReadGuest(addr, 8)
				var w uint64
				if err == nil {
					w = binary.LittleEndian.Uint64(bs)
				}
				want = [2]any{w, errClass(err)}
			case tlbOpStore64:
				got, want = errClass(a.mem.WriteU64(addr, word)), errClass(b.mem.WriteGuest(addr, le[:]))
			case tlbOpLoad8:
				v, err := a.mem.ReadU8(addr)
				got = [2]any{v, errClass(err)}
				bs, err := b.mem.ReadGuest(addr, 1)
				var w byte
				if err == nil {
					w = bs[0]
				}
				want = [2]any{w, errClass(err)}
			case tlbOpStore8:
				got, want = errClass(a.mem.WriteU8(addr, val)), errClass(b.mem.WriteGuest(addr, le[:1]))
			case tlbOpFetch:
				var ba, bb [maxInstLen]byte
				na, ea := a.mem.fetch(addr, ba[:])
				nb, eb := refFetch(b.mem, addr, bb[:])
				got, want = [3]any{na, ba, errClass(ea)}, [3]any{nb, bb, errClass(eb)}
			case tlbOpCloneCoW:
				a.sib, b.sib = a.mem.CloneCoW(), b.mem.CloneCoW()
			case tlbOpSiblingStore:
				if a.sib != nil {
					got, want = errClass(a.sib.WriteU64(addr, word)), errClass(b.sib.WriteGuest(addr, le[:]))
				}
			case tlbOpSetPage:
				pa, pb := bytes.Repeat([]byte{val}, PageSize), bytes.Repeat([]byte{val}, PageSize)
				got, want = errClass(a.mem.SetPage(pn, pa)), errClass(b.mem.SetPage(pn, pb))
				a.hold(pa)
				b.hold(pb)
			case tlbOpShare:
				pa, pb := a.mem.SharePage(pn), b.mem.SharePage(pn)
				got, want = pa != nil, pb != nil
				a.hold(pa)
				b.hold(pb)
			case tlbOpFlipBits:
				got, want = a.mem.FlipBits(addr, val|1), b.mem.FlipBits(addr, val|1)
			case tlbOpWrite:
				got, want = errClass(a.mem.Write(addr, le[:3])), errClass(b.mem.Write(addr, le[:3]))
			case tlbOpMap:
				start := pn * PageSize
				v := VMA{Start: start, End: start + PageSize*(1+uint64(off)%3), Perm: delf.Perm(val) & (delf.PermR | delf.PermW | delf.PermX), Anon: true}
				got, want = errClass(a.mem.Map(v)), errClass(b.mem.Map(v))
			case tlbOpRecord:
				a.record(addr)
				b.record(addr)
			case tlbOpInsert:
				a.insert()
				b.insert()
			case tlbOpDispatch:
				for _, bi := range b.mem.CachedBlocks() {
					ga := a.mem.bc.lookup(a.mem, bi.Entry) != nil
					gb := b.mem.bc.lookup(b.mem, bi.Entry) != nil
					if ga != gb {
						t.Fatalf("op %d: dispatch at %#x: guest side found a block %v, slow side %v", i/5, bi.Entry, ga, gb)
					}
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("op %d (%d at %#x): guest side %v, slow side %v", i/5, op, addr, got, want)
			}
			samePages(t, "memory", a.mem, b.mem)
			if sa, sb := a.mem.SharedPageCount(), b.mem.SharedPageCount(); sa != sb {
				t.Fatalf("op %d (%d at %#x): %d shared pages, want %d", i/5, op, addr, sa, sb)
			}
			ca, cb := a.mem.CachedBlocks(), b.mem.CachedBlocks()
			if len(ca) != len(cb) {
				t.Fatalf("op %d (%d at %#x): %d cached blocks, want %d", i/5, op, addr, len(ca), len(cb))
			}
			for k := range ca {
				if ca[k].Entry != cb[k].Entry || !slices.Equal(ca[k].Pages, cb[k].Pages) {
					t.Fatalf("op %d (%d at %#x): cached block %+v, want %+v", i/5, op, addr, ca[k], cb[k])
				}
			}
			if a.sib != nil {
				samePages(t, "CoW sibling", a.sib, b.sib)
			}
			for _, s := range []*tlbFuzzSide{a, b} {
				for k, h := range s.held {
					if !bytes.Equal(h.page, h.want) {
						t.Fatalf("op %d (%d at %#x): shared page slice %d was written in place", i/5, op, addr, k)
					}
				}
			}
		}
	})
}
