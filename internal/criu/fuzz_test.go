package criu

import (
	"bytes"
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
				Pages:   page,
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
