package criu

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/dynacut/dynacut/internal/criu/pbuf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// marshalProcEntryWithoutChecksum encodes one proc entry the way a
// pre-integrity writer would have: content only, no checksum field.
func marshalProcEntryWithoutChecksum(pid int, pi *ProcImage) []byte {
	var e pbuf.Encoder
	body := marshalProcBody(pid, pi)
	e.Msg(1, func(pe *pbuf.Encoder) { pe.Raw(body) })
	return e.Finish()
}

// procCRC is the checksum Marshal writes for one proc entry of a full
// set: the CRC-32C of its body.
func procCRC(t *testing.T, set *ImageSet, pid int) uint32 {
	t.Helper()
	pi, err := set.Proc(pid)
	if err != nil {
		t.Fatal(err)
	}
	return crc32.Checksum(marshalProcBody(pid, pi), crcTable)
}

// dumpCounter boots the counter guest and dumps it with exec pages
// (the rewrite-flow shape).
func dumpCounter(t *testing.T) (*kernel.Machine, *kernel.Process, *ImageSet) {
	t.Helper()
	m := kernel.NewMachine()
	exe := buildExe(t, "counter", counterSrc)
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(3000)
	set, err := Dump(m, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, p, set
}

func TestMarshalChecksumRoundTrip(t *testing.T) {
	m, p, set := dumpCounter(t)
	want := procCRC(t, set, p.PID())
	blob := set.Marshal()
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatalf("unmarshal pristine blob: %v", err)
	}
	if sum := procCRC(t, got, p.PID()); sum != want {
		t.Errorf("checksum drifted across roundtrip: %#x -> %#x", want, sum)
	}
	if err := got.Validate(m); err != nil {
		t.Errorf("roundtripped set fails validation: %v", err)
	}
}

// TestChecksumTracksContent: editing a decoded image changes its
// checksum (the checksum is a property of the content, recomputed at
// Marshal time — in-memory edits never invalidate a set).
func TestChecksumTracksContent(t *testing.T) {
	_, p, set := dumpCounter(t)
	before := procCRC(t, set, p.PID())
	set.Procs[p.PID()].Core.Regs[1] ^= 0xFFFF
	after := procCRC(t, set, p.PID())
	if before == after {
		t.Error("checksum ignored a register edit")
	}
	// The re-marshaled blob still decodes: the checksum is rewritten.
	if _, err := Unmarshal(set.Marshal()); err != nil {
		t.Errorf("re-marshal after edit: %v", err)
	}
}

// TestEveryBitFlipIsRejected is the integrity property behind the
// transactional rewrite: no single-bit corruption of a serialized
// image set may decode successfully. One seeded-random bit is flipped
// at every byte offset.
func TestEveryBitFlipIsRejected(t *testing.T) {
	_, _, set := dumpCounter(t)
	// Keep the blob small but representative: the counter guest dumps
	// code, data and stack pages.
	blob := set.Marshal()
	rng := rand.New(rand.NewSource(1))
	for off := 0; off < len(blob); off++ {
		mutated := append([]byte(nil), blob...)
		mutated[off] ^= byte(1 << rng.Intn(8))
		if _, err := Unmarshal(mutated); err == nil {
			t.Fatalf("bit flip at offset %d/%d decoded successfully", off, len(blob))
		}
	}
}

func TestEveryTruncationIsRejected(t *testing.T) {
	_, _, set := dumpCounter(t)
	blob := set.Marshal()
	for n := 0; n < len(blob); n += 7 { // stride keeps the test fast
		if _, err := Unmarshal(blob[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(blob))
		}
	}
}

func TestUnmarshalRejectsMissingChecksum(t *testing.T) {
	_, p, set := dumpCounter(t)
	// Encode the proc entry without its checksum field, as a pre-
	// integrity writer would have.
	blob := marshalProcEntryWithoutChecksum(p.PID(), set.Procs[p.PID()])
	_, err := Unmarshal(blob)
	if !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("missing checksum -> %v, want ErrCorruptImage", err)
	}
}

// TestValidateBackingFileErrors pins the text of both disk-check
// failures: a backing file that is missing and one that is on disk but
// does not parse as DELF.
func TestValidateBackingFileErrors(t *testing.T) {
	m, p, set := dumpCounter(t)
	var v VMAEntry
	for _, e := range set.Procs[p.PID()].MM.VMAs {
		if !e.Anon && e.Backing != "" && e.BackSection != "" {
			v = e
			break
		}
	}
	if v.Backing == "" {
		t.Fatal("no file-backed VMA in dump")
	}
	m.WriteFile(v.Backing, []byte("not a DELF binary"))
	want := fmt.Sprintf("%v: pid %d: VMA %s: backing file %s: delf: malformed file: bad magic",
		ErrInconsistentImage, p.PID(), v.Name, v.Backing)
	if err := set.Validate(m); !errors.Is(err, ErrInconsistentImage) || err.Error() != want {
		t.Fatalf("unparseable backing file: got %v\nwant %s", err, want)
	}

	want = fmt.Sprintf("%v: pid %d: VMA %s: backing file: kernel: no such file on disk: %q",
		ErrInconsistentImage, p.PID(), v.Name, v.Backing)
	if err := set.Validate(kernel.NewMachine()); !errors.Is(err, ErrInconsistentImage) || err.Error() != want {
		t.Fatalf("missing backing file: got %v\nwant %s", err, want)
	}
}

func TestValidateCatchesInconsistencies(t *testing.T) {
	corrupt := func(t *testing.T, f func(t *testing.T, set *ImageSet, pid int)) error {
		t.Helper()
		m, p, set := dumpCounter(t)
		f(t, set, p.PID())
		return set.Validate(m)
	}
	cases := []struct {
		name string
		f    func(t *testing.T, set *ImageSet, pid int)
	}{
		{"rip unmapped", func(t *testing.T, set *ImageSet, pid int) {
			set.Procs[pid].Core.RIP = 0xdead_beef_f000
		}},
		{"vma not page aligned", func(t *testing.T, set *ImageSet, pid int) {
			set.Procs[pid].MM.VMAs[0].Start += 3
		}},
		{"vma inverted", func(t *testing.T, set *ImageSet, pid int) {
			v := &set.Procs[pid].MM.VMAs[0]
			v.Start, v.End = v.End, v.Start
		}},
		{"vma bad perm bits", func(t *testing.T, set *ImageSet, pid int) {
			set.Procs[pid].MM.VMAs[0].Perm = 0xF8
		}},
		{"vmas overlap", func(t *testing.T, set *ImageSet, pid int) {
			mm := &set.Procs[pid].MM
			mm.VMAs = append(mm.VMAs, mm.VMAs[0])
		}},
		{"pages blob short", func(t *testing.T, set *ImageSet, pid int) {
			pi := set.Procs[pid]
			pi.Pages = pi.Pages[:len(pi.Pages)-1]
		}},
		{"duplicate page number", func(t *testing.T, set *ImageSet, pid int) {
			pm := &set.Procs[pid].PageMap
			if len(pm.PageNumbers) < 2 {
				t.Skip("single-page dump")
			}
			pm.PageNumbers[1] = pm.PageNumbers[0]
		}},
		{"dumped page outside vmas", func(t *testing.T, set *ImageSet, pid int) {
			pns := set.Procs[pid].PageMap.PageNumbers
			pns[len(pns)-1] = 0xdead_beef // past every VMA, still ascending
		}},
		{"pid mismatch", func(t *testing.T, set *ImageSet, pid int) {
			set.Procs[pid].Core.PID = pid + 99
		}},
		{"duplicate pid entry", func(t *testing.T, set *ImageSet, pid int) {
			set.PIDs = append(set.PIDs, pid)
		}},
		{"missing proc image", func(t *testing.T, set *ImageSet, pid int) {
			delete(set.Procs, pid)
		}},
		{"negative fd", func(t *testing.T, set *ImageSet, pid int) {
			pi := set.Procs[pid]
			pi.Files.Files = append(pi.Files.Files, FileEntry{FD: -1, Kind: uint8(kernel.FDStdio)})
		}},
		{"unknown fd kind", func(t *testing.T, set *ImageSet, pid int) {
			pi := set.Procs[pid]
			pi.Files.Files = append(pi.Files.Files, FileEntry{FD: 9, Kind: 200})
		}},
		{"unreadable backing file", func(t *testing.T, set *ImageSet, pid int) {
			for i := range set.Procs[pid].MM.VMAs {
				v := &set.Procs[pid].MM.VMAs[i]
				if !v.Anon && v.Backing != "" && v.BackSection != "" {
					v.Backing = "no-such-binary"
					return
				}
			}
			t.Skip("no file-backed VMA in dump")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := corrupt(t, tc.f)
			if !errors.Is(err, ErrInconsistentImage) {
				t.Fatalf("got %v, want ErrInconsistentImage", err)
			}
		})
	}

	// And the untouched set must pass.
	m, _, set := dumpCounter(t)
	if err := set.Validate(m); err != nil {
		t.Fatalf("pristine set rejected: %v", err)
	}
	// Without a store, disk-backed checks are skipped but structural
	// ones still run.
	if err := set.Validate(nil); err != nil {
		t.Fatalf("pristine set rejected without store: %v", err)
	}
}
