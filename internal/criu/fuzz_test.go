package criu

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/dynacut/dynacut/internal/kernel"
)

// fuzzSeedSet builds a small hand-rolled image set so the fuzz corpus
// contains real Marshal output without booting a guest.
func fuzzSeedSet() *ImageSet {
	page := bytes.Repeat([]byte{0x90}, kernel.PageSize)
	return &ImageSet{
		PIDs: []int{1},
		Procs: map[int]*ProcImage{
			1: {
				Core: CoreImage{
					Name: "guest", PID: 1, RIP: 0x400000,
					Sigs: []SigEntry{{Signo: 5, Handler: 0x400010, Restorer: 0x400020}},
				},
				MM: MMImage{
					VMAs: []VMAEntry{
						{Start: 0x400000, End: 0x401000, Perm: 0x5, Name: "text", Anon: true},
						{Start: 0x7ff000, End: 0x800000, Perm: 0x3, Name: "stack", Anon: true},
					},
					Modules: []ModuleEntry{{Name: "guest", Lo: 0x400000, Hi: 0x401000}},
				},
				PageMap: PageMapImage{PageNumbers: []uint64{0x400}},
				Pages:   [][]byte{page},
				Files: FilesImage{Files: []FileEntry{
					{FD: 0, Kind: uint8(kernel.FDStdio)},
					{FD: 3, Kind: uint8(kernel.FDListener), Port: 8080},
				}},
			},
		},
	}
}

// FuzzUnmarshalImages drives arbitrary byte blobs through the image
// decoder. The contract under fuzz: Unmarshal must return an error or
// a usable set — never panic, and never return a set that then panics
// Validate or Marshal. Corruption of real images must be rejected.
func FuzzUnmarshalImages(f *testing.F) {
	blob := fuzzSeedSet().Marshal()
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(blob)-1])
	f.Add([]byte{})
	f.Add([]byte{0x0A, 0x00})
	// The incremental wire form: a parent reference no blob may carry.
	f.Add(handBlob(fuzzSeedSet(), true, nil))
	mutated := append([]byte(nil), blob...)
	mutated[len(mutated)/3] ^= 0x40
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := Unmarshal(data)
		if err != nil {
			if set != nil {
				t.Fatal("Unmarshal returned both a set and an error")
			}
			return
		}
		// Whatever decoded must be safe to inspect and re-encode.
		_ = set.Validate(nil)
		reblob := set.Marshal()
		if _, err := Unmarshal(reblob); err != nil {
			t.Fatalf("re-marshaled set does not decode: %v", err)
		}
	})
}

// FuzzImageEdits runs random sequences of SetPage, DropPages, Page,
// Clone and a Marshal→Unmarshal round trip over a re-dumped set,
// checked against a plain map model. After every operation the set
// must read exactly as the model, and no edit may change the bytes of
// the sets it shares page slices with: the set it was cloned from, the
// dumped set and the earlier dump that set shares its clean pages
// with. That sharing is safe only because nothing writes into a page
// slice.
//
// Each operation is three input bytes: the operation, a page selector
// and a fill byte (or, for DropPages, the range length); past 64
// operations the input is ignored.
func FuzzImageEdits(f *testing.F) {
	m, p := loadCounter(f)
	prev, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		f.Fatal(err)
	}
	m.Run(500)
	dumped, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		f.Fatal(err)
	}
	pid := p.PID()
	if sharedPages(dumped.Procs[pid], prev.Procs[pid]) == 0 {
		f.Fatal("re-dump shares no page with the earlier dump")
	}
	pns := dumped.Procs[pid].PageMap.PageNumbers

	f.Add([]byte{0, 0x80, 0xcc, 2, 0x80, 0})
	f.Add([]byte{3, 0, 0, 0, 0x81, 0x11, 4, 0, 0, 2, 0x81, 0})
	f.Add([]byte{1, 0x80, 3, 0, 0x02, 0x22, 3, 0, 0, 1, 0x02, 1, 4, 0, 0})
	f.Add([]byte{0, 0x05, 0x33, 3, 0, 0, 0, 0x05, 0x44, 2, 0x05, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		type frozen struct {
			set  *ImageSet
			want map[uint64][]byte
		}
		content := func(set *ImageSet) map[uint64][]byte {
			pi := set.Procs[pid]
			out := make(map[uint64][]byte, len(pi.Pages))
			for i, pn := range pi.PageMap.PageNumbers {
				out[pn] = bytes.Clone(pi.Pages[i])
			}
			return out
		}
		reads := func(set *ImageSet, want map[uint64][]byte) string {
			pi := set.Procs[pid]
			if msg := pi.tableError(); msg != "" {
				return msg
			}
			if len(pi.PageMap.PageNumbers) != len(want) {
				return fmt.Sprintf("table holds %d pages, want %d", len(pi.PageMap.PageNumbers), len(want))
			}
			for pn, page := range want {
				got, err := pi.Page(pn)
				if err != nil || !bytes.Equal(got, page) {
					return fmt.Sprintf("page %d reads wrong (%v)", pn, err)
				}
			}
			return ""
		}
		const maxOps = 64
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps]
		}
		sources := []frozen{{prev, content(prev)}, {dumped, content(dumped)}}
		work := dumped.Clone()
		model := content(work)

		for i := 0; i+2 < len(ops); i += 3 {
			op, sel, arg := ops[i]%5, ops[i+1], ops[i+2]
			// A selector with the top bit set picks a dumped page;
			// otherwise a page near the lowest one, dumped or not.
			pn := pns[0] + uint64(sel%16)
			if sel&0x80 != 0 {
				pn = pns[int(sel&0x7f)%len(pns)]
			}
			pi := work.Procs[pid]
			switch op {
			case 0:
				page := bytes.Repeat([]byte{arg}, kernel.PageSize)
				if err := pi.SetPage(pn, page); err != nil {
					t.Fatal(err)
				}
				if got, _ := pi.Page(pn); &got[0] != &page[0] {
					t.Fatalf("op %d: SetPage copied the page it was handed", i/3)
				}
				model[pn] = bytes.Clone(page)
			case 1:
				end := pn + uint64(arg%4)
				pi.DropPages(pn, end)
				for n := pn; n < end; n++ {
					delete(model, n)
				}
			case 2:
				got, err := pi.Page(pn)
				want, ok := model[pn]
				if ok != (err == nil) || ok && !bytes.Equal(got, want) {
					t.Fatalf("op %d: Page(%d) = %v, model has it: %v", i/3, pn, err, ok)
				}
			case 3:
				sources = append(sources, frozen{work, content(work)})
				work = work.Clone()
			case 4:
				back, err := Unmarshal(work.Marshal())
				if err != nil {
					t.Fatalf("op %d: round trip: %v", i/3, err)
				}
				work = back
			}
			if msg := reads(work, model); msg != "" {
				t.Fatalf("op %d (%d): set disagrees with the model: %s", i/3, op, msg)
			}
			for k, src := range sources {
				if msg := reads(src.set, src.want); msg != "" {
					t.Fatalf("op %d (%d): source %d changed: %s", i/3, op, k, msg)
				}
			}
		}
	})
}
