// Package criu implements checkpoint/restore in userspace for the
// simulated kernel, mirroring the CRIU workflow DynaCut builds on:
// a running process (tree) is frozen into a set of protobuf-encoded
// images (core, mm, pagemap, pages, files), the images can be
// rewritten offline (internal/crit), and a process can be restored
// from them with its TCP connections re-attached (TCP repair).
//
// Vanilla CRIU dumps only anonymous memory: file-backed pages are
// re-materialized from the binaries on disk at restore time. That is
// fatal for a process rewriter — byte patches to code pages would be
// silently undone — so, like the paper's modified CRIU, Dump accepts
// an option to also dump private executable file-backed pages.
package criu

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"github.com/dynacut/dynacut/internal/criu/pbuf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// Package errors.
var (
	ErrBadImage   = errors.New("criu: malformed image")
	ErrNoImage    = errors.New("criu: missing image")
	ErrPageAbsent = errors.New("criu: page not present in image")
	// ErrCorruptImage flags a serialized image whose checksum does not
	// match its content (bit flips, truncation inside an entry).
	ErrCorruptImage = errors.New("criu: corrupt image")
	// ErrInconsistentImage flags an image set whose parts contradict
	// each other (pagemap not covered by pages, RIP unmapped, ...).
	ErrInconsistentImage = errors.New("criu: inconsistent image set")
)

// SigEntry is one registered signal handler in a core image.
type SigEntry struct {
	Signo    int    `json:"signo"`
	Handler  uint64 `json:"handler"`
	Restorer uint64 `json:"restorer"`
}

// CoreImage mirrors CRIU's core.img: identity, registers, and signal
// dispositions.
type CoreImage struct {
	Name     string     `json:"name"`
	PID      int        `json:"pid"`
	Parent   int        `json:"parent"`
	RIP      uint64     `json:"rip"`
	Flags    uint64     `json:"flags"`
	Regs     [16]uint64 `json:"regs"`
	Sigs     []SigEntry `json:"sigactions,omitempty"`
	ExitedOK bool       `json:"exitedOk,omitempty"` // dumped after clean exit (diagnostics only)
	// SysFilter is the seccomp-style syscall allow list; HasFilter
	// distinguishes "no filter" from an empty (deny-all) filter.
	HasFilter bool     `json:"hasFilter,omitempty"`
	SysFilter []uint64 `json:"sysFilter,omitempty"`
}

// VMAEntry is one VMA in an mm image.
type VMAEntry struct {
	Start       uint64 `json:"start"`
	End         uint64 `json:"end"`
	Perm        uint8  `json:"perm"`
	Name        string `json:"name"`
	Backing     string `json:"backing,omitempty"`
	BackSection string `json:"backSection,omitempty"`
	Anon        bool   `json:"anon"`
}

// ModuleEntry records a mapped binary (for tracing and rewriting).
type ModuleEntry struct {
	Name string `json:"name"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
}

// MMImage mirrors CRIU's mm.img: the full VMA table plus the module
// list.
type MMImage struct {
	VMAs    []VMAEntry    `json:"vmas"`
	Modules []ModuleEntry `json:"modules"`
}

// PageMapImage lists which pages are present in the pages image, in
// order.
type PageMapImage struct {
	PageNumbers []uint64
}

// FileEntry describes one open descriptor.
type FileEntry struct {
	FD     int    `json:"fd"`
	Kind   uint8  `json:"kind"`
	StdNo  int    `json:"stdNo,omitempty"`
	Port   uint16 `json:"port,omitempty"`
	ConnID uint64 `json:"connId,omitempty"`
	SideA  bool   `json:"sideA,omitempty"`
}

// FilesImage mirrors CRIU's files.img/tcp images.
type FilesImage struct {
	Files []FileEntry
}

// ProcImage aggregates the images of one process. Its page table is
// complete: PageMap.PageNumbers is sorted ascending without
// duplicates, and Pages[i] holds the PageSize bytes of page
// PageNumbers[i], so a read never looks past its own table.
//
// Page slices are immutable once they are in a table, so tables and
// guest memory share them: Dump takes live pages copy-on-write, Clone
// shares the source's, and Restore installs every page by reference,
// copy-on-write. Only a committed rewrite, whose dumped sets die with
// it, hands a restored guest the pages its killed predecessor alone
// held (kernel.Process.Adopt). SetPage takes ownership of its slice; the only writer is
// a crit.Editor patching the copies it made, before the set is shared. The two table slices
// themselves belong to one image.
type ProcImage struct {
	Core    CoreImage
	MM      MMImage
	PageMap PageMapImage
	Pages   [][]byte // parallel to PageMap.PageNumbers
	Files   FilesImage
}

// Page returns the dumped contents of page pn. The slice may be shared
// with other images and guest memory: callers must not write into it.
func (pi *ProcImage) Page(pn uint64) ([]byte, error) {
	i, ok := slices.BinarySearch(pi.PageMap.PageNumbers, pn)
	if !ok {
		return nil, fmt.Errorf("%w: page %d", ErrPageAbsent, pn)
	}
	return pi.Pages[i], nil
}

// SetPage makes data, a fresh slice the image now owns, the contents
// of page pn, replacing the page or inserting it in page-number order.
func (pi *ProcImage) SetPage(pn uint64, data []byte) error {
	if len(data) != kernel.PageSize {
		return fmt.Errorf("%w: page data must be %d bytes", ErrBadImage, kernel.PageSize)
	}
	page := data[:kernel.PageSize:kernel.PageSize]
	i, ok := slices.BinarySearch(pi.PageMap.PageNumbers, pn)
	if ok {
		pi.Pages[i] = page
		return nil
	}
	pi.PageMap.PageNumbers = slices.Insert(pi.PageMap.PageNumbers, i, pn)
	pi.Pages = slices.Insert(pi.Pages, i, page)
	return nil
}

// DropPages removes the dumped pages in [startPN, endPN).
func (pi *ProcImage) DropPages(startPN, endPN uint64) {
	lo, _ := slices.BinarySearch(pi.PageMap.PageNumbers, startPN)
	hi, _ := slices.BinarySearch(pi.PageMap.PageNumbers, endPN)
	if lo < hi {
		pi.PageMap.PageNumbers = slices.Delete(pi.PageMap.PageNumbers, lo, hi)
		pi.Pages = slices.Delete(pi.Pages, lo, hi)
	}
}

// tableError describes what is wrong with the page table — the two
// slices differ in length, a page is not PageSize bytes, or the page
// numbers are not strictly ascending — or returns "" for a sound one.
func (pi *ProcImage) tableError() string {
	pns := pi.PageMap.PageNumbers
	if len(pi.Pages) != len(pns) {
		return fmt.Sprintf("%d pages for %d pagemap entries", len(pi.Pages), len(pns))
	}
	for i, pn := range pns {
		if len(pi.Pages[i]) != kernel.PageSize {
			return fmt.Sprintf("page %d is %d bytes", pn, len(pi.Pages[i]))
		}
		if i > 0 && pn <= pns[i-1] {
			return fmt.Sprintf("pagemap not strictly ascending at page %d", pn)
		}
	}
	return ""
}

// ImageSet is a dumped process tree: one ProcImage per PID, plus the
// inventory order (parents before children).
type ImageSet struct {
	PIDs  []int
	Procs map[int]*ProcImage

	// PagesDumped is the size of the page table the Dump that produced
	// this set took, summed over its processes (transient; not
	// serialized).
	PagesDumped int
}

// Ident returns the set's identity, which keys the set in a PageStore:
// a SHA-256 over each process's metadata encoding and the SHA-256 of
// each of its pages, in PIDs order. Two sets with different Marshal
// bytes get different idents. It marshals nothing and copies no page.
func (s *ImageSet) Ident() [sha256.Size]byte {
	ident, _ := s.digest()
	return ident
}

// digest computes the set's Ident and, for each entry of PIDs, the
// SHA-256 of each of its pages in page-table order — the page keys a
// PageStore files them under.
func (s *ImageSet) digest() ([sha256.Size]byte, [][][sha256.Size]byte) {
	h := sha256.New()
	keys := make([][][sha256.Size]byte, len(s.PIDs))
	for i, pid := range s.PIDs {
		// A length-delimited metadata entry that counts the pages, then
		// one fixed-size digest per page.
		pi := s.Procs[pid]
		var e pbuf.Encoder
		e.Msg(1, func(pe *pbuf.Encoder) {
			pe.Uint(1, uint64(pid))
			pe.Bytes(2, marshalCore(&pi.Core))
			pe.Bytes(3, marshalMM(&pi.MM))
			pe.Bytes(4, marshalPageMap(&pi.PageMap))
			pe.Uint(5, uint64(len(pi.Pages)))
			pe.Bytes(6, marshalFiles(&pi.Files))
		})
		h.Write(e.Finish())
		keys[i] = make([][sha256.Size]byte, len(pi.Pages))
		for j, pg := range pi.Pages {
			keys[i][j] = sha256.Sum256(pg)
			h.Write(keys[i][j][:])
		}
	}
	var ident [sha256.Size]byte
	h.Sum(ident[:0])
	return ident, keys
}

// Clone returns a copy of the set that an editor may mutate freely:
// every proc image's metadata and page table are copied, while the
// immutable page slices are shared.
func (s *ImageSet) Clone() *ImageSet {
	out := &ImageSet{
		PIDs:        append([]int(nil), s.PIDs...),
		Procs:       make(map[int]*ProcImage, len(s.Procs)),
		PagesDumped: s.PagesDumped,
	}
	for pid, pi := range s.Procs {
		out.Procs[pid] = pi.clone()
	}
	return out
}

// clone copies the image's metadata and page table, sharing the page
// slices.
func (pi *ProcImage) clone() *ProcImage {
	c := cloneProcShell(pi)
	c.Pages = slices.Clone(pi.Pages)
	return c
}

// Proc returns the image of one PID.
func (s *ImageSet) Proc(pid int) (*ProcImage, error) {
	pi, ok := s.Procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d", ErrNoImage, pid)
	}
	return pi, nil
}

// TotalBytes estimates the set's image size: page bytes, plus 64
// bytes per VMA and 8 per page number, over the whole page table. It
// is not the length Marshal produces.
func (s *ImageSet) TotalBytes() int {
	n := 0
	for _, pi := range s.Procs {
		n += 64*len(pi.MM.VMAs) + (kernel.PageSize+8)*len(pi.PageMap.PageNumbers)
	}
	return n
}

// Serialization -----------------------------------------------------

// crcTable is the Castagnoli polynomial table used for per-image
// checksums (same polynomial SSE4.2 crc32c uses).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksumField is the proc-entry field carrying the CRC of the
// entry's own body (every other field); it is always written last.
const checksumField = 7

// Wire fields of the retired incremental format: a top-level parent
// reference and the per-proc delta flag and holes. Marshal never
// writes them, and Unmarshal rejects a blob that carries any, so a
// blob never decodes as a set that expects a parent.
const (
	refField   = 2
	deltaField = 8
	holesField = 9
)

// marshalProcBody encodes the checksummed portion of one proc entry.
// It must stay deterministic: per-proc bodies are byte-identical run
// to run, so the assembled blob (and its CRCs) never wobbles.
func marshalProcBody(pid int, pi *ProcImage) []byte {
	var e pbuf.Encoder
	e.Uint(1, uint64(pid))
	e.Bytes(2, marshalCore(&pi.Core))
	e.Bytes(3, marshalMM(&pi.MM))
	e.Bytes(4, marshalPageMap(&pi.PageMap))
	e.Chunks(5, pi.Pages)
	e.Bytes(6, marshalFiles(&pi.Files))
	return e.Finish()
}

// Marshal encodes the image set into a single blob (the "tmpfs
// directory" of the paper's setup). Every proc entry carries a CRC32C
// checksum of its content; Unmarshal refuses blobs that fail it. Every
// set holds its complete page table, so the blob is always a full,
// self-contained set.
//
// Proc entries are written in PID order, so the output is
// byte-identical run to run.
func (s *ImageSet) Marshal() []byte {
	var e pbuf.Encoder
	for _, pid := range s.PIDs {
		body := marshalProcBody(pid, s.Procs[pid])
		e.Msg(1, func(pe *pbuf.Encoder) {
			pe.Raw(body)
			pe.Uint(checksumField, uint64(crc32.Checksum(body, crcTable)))
		})
	}
	return e.Finish()
}

// unmarshalProcEntry decodes and checksum-verifies one raw proc
// entry.
func unmarshalProcEntry(raw []byte) (int, *ProcImage, error) {
	pi := &ProcImage{}
	var pages []byte
	pid := -1
	wantCRC := uint64(0)
	hasCRC := false
	pd := pbuf.NewDecoder(raw)
	var decodeErr error
	for decodeErr == nil && pd.Next() {
		switch pd.Field() {
		case 1:
			pid = int(pd.Uint())
		case 2:
			c, err := unmarshalCore(pd.Bytes())
			if err != nil {
				decodeErr = err
				break
			}
			pi.Core = *c
		case 3:
			mm, err := unmarshalMM(pd.Bytes())
			if err != nil {
				decodeErr = err
				break
			}
			pi.MM = *mm
		case 4:
			pm, err := unmarshalPageMap(pd.Bytes())
			if err != nil {
				decodeErr = err
				break
			}
			pi.PageMap = *pm
		case 5:
			pages = append([]byte(nil), pd.Bytes()...)
		case 6:
			f, err := unmarshalFiles(pd.Bytes())
			if err != nil {
				decodeErr = err
				break
			}
			pi.Files = *f
		case checksumField:
			wantCRC = pd.Uint()
			hasCRC = true
		case deltaField, holesField:
			decodeErr = fmt.Errorf("incremental field %d in proc entry", pd.Field())
		default:
			pd.Skip()
		}
	}
	if decodeErr == nil {
		decodeErr = pd.Err()
	}
	if decodeErr != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadImage, decodeErr)
	}
	if pid < 0 {
		return 0, nil, fmt.Errorf("%w: proc entry without pid", ErrBadImage)
	}
	if !hasCRC {
		return 0, nil, fmt.Errorf("%w: proc entry for pid %d lacks a checksum", ErrCorruptImage, pid)
	}
	// The checksum field is always written last, so the checksummed
	// body is everything before its encoding. Verifying over the raw
	// received bytes — not re-encoded content — rejects even
	// semantically neutral bit flips.
	var se pbuf.Encoder
	se.Uint(checksumField, wantCRC)
	suffix := se.Finish()
	if !bytes.HasSuffix(raw, suffix) {
		return 0, nil, fmt.Errorf("%w: pid %d checksum is not the final field", ErrCorruptImage, pid)
	}
	body := raw[:len(raw)-len(suffix)]
	if got := crc32.Checksum(body, crcTable); uint64(got) != wantCRC {
		return 0, nil, fmt.Errorf("%w: pid %d checksum %#x, image says %#x",
			ErrCorruptImage, pid, got, wantCRC)
	}
	if len(pages) != kernel.PageSize*len(pi.PageMap.PageNumbers) {
		return 0, nil, fmt.Errorf("%w: pages/pagemap size mismatch for pid %d", ErrBadImage, pid)
	}
	pi.Pages = splitPages(pages)
	if msg := pi.tableError(); msg != "" {
		return 0, nil, fmt.Errorf("%w: pid %d: %s", ErrBadImage, pid, msg)
	}
	return pid, pi, nil
}

// splitPages cuts buf into PageSize slices, each capped at its own
// end so no slice can grow into its neighbour.
func splitPages(buf []byte) [][]byte {
	pages := make([][]byte, len(buf)/kernel.PageSize)
	for i := range pages {
		pages[i] = buf[i*kernel.PageSize : (i+1)*kernel.PageSize : (i+1)*kernel.PageSize]
	}
	return pages
}

// Unmarshal decodes an image set blob, verifying every proc entry's
// checksum. Corruption — truncation, bit flips, a missing checksum —
// yields an error wrapping ErrCorruptImage or ErrBadImage; no partial
// set is ever returned. Proc entries are decoded in blob order, and
// the first bad entry fails the blob. A blob carrying any field of the
// retired incremental format, or a pagemap that is not strictly
// ascending, is rejected with ErrBadImage: blobs come from outside the
// program, and every decoded set must hold a complete, sorted page
// table.
func Unmarshal(data []byte) (*ImageSet, error) {
	s := &ImageSet{Procs: map[int]*ProcImage{}}

	d := pbuf.NewDecoder(data)
	for d.Next() {
		switch d.Field() {
		case 1:
			raw := d.Bytes() // the whole proc entry, for byte-exact CRC
			if d.Err() != nil {
				break
			}
			pid, pi, err := unmarshalProcEntry(raw)
			if err != nil {
				return nil, err
			}
			if _, dup := s.Procs[pid]; dup {
				return nil, fmt.Errorf("%w: duplicate proc entry for pid %d", ErrBadImage, pid)
			}
			s.PIDs = append(s.PIDs, pid)
			s.Procs[pid] = pi
		case refField:
			return nil, fmt.Errorf("%w: blob carries a parent reference", ErrBadImage)
		default:
			d.Skip()
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	if len(s.PIDs) == 0 {
		return nil, fmt.Errorf("%w: empty image set", ErrBadImage)
	}
	return s, nil
}

func marshalCore(c *CoreImage) []byte {
	var e pbuf.Encoder
	e.String(1, c.Name)
	e.Uint(2, uint64(c.PID))
	e.Uint(3, uint64(c.Parent))
	e.Fixed64(4, c.RIP)
	e.Uint(5, c.Flags)
	for _, r := range c.Regs {
		e.Fixed64(6, r)
	}
	for _, sg := range c.Sigs {
		e.Msg(7, func(se *pbuf.Encoder) {
			se.Uint(1, uint64(sg.Signo))
			se.Fixed64(2, sg.Handler)
			se.Fixed64(3, sg.Restorer)
		})
	}
	e.Bool(8, c.ExitedOK)
	e.Bool(9, c.HasFilter)
	for _, nr := range c.SysFilter {
		e.Uint(10, nr)
	}
	return e.Finish()
}

func unmarshalCore(data []byte) (*CoreImage, error) {
	c := &CoreImage{}
	d := pbuf.NewDecoder(data)
	regIdx := 0
	for d.Next() {
		switch d.Field() {
		case 1:
			c.Name = d.String()
		case 2:
			c.PID = int(d.Uint())
		case 3:
			c.Parent = int(d.Uint())
		case 4:
			c.RIP = d.Fixed64()
		case 5:
			c.Flags = d.Uint()
		case 6:
			if regIdx >= len(c.Regs) {
				return nil, fmt.Errorf("%w: too many registers", ErrBadImage)
			}
			c.Regs[regIdx] = d.Fixed64()
			regIdx++
		case 7:
			var sg SigEntry
			d.Msg(func(sd *pbuf.Decoder) error {
				for sd.Next() {
					switch sd.Field() {
					case 1:
						sg.Signo = int(sd.Uint())
					case 2:
						sg.Handler = sd.Fixed64()
					case 3:
						sg.Restorer = sd.Fixed64()
					default:
						sd.Skip()
					}
				}
				return nil
			})
			c.Sigs = append(c.Sigs, sg)
		case 8:
			c.ExitedOK = d.Bool()
		case 9:
			c.HasFilter = d.Bool()
		case 10:
			c.SysFilter = append(c.SysFilter, d.Uint())
		default:
			d.Skip()
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: core: %v", ErrBadImage, err)
	}
	return c, nil
}

func marshalMM(mm *MMImage) []byte {
	var e pbuf.Encoder
	for _, v := range mm.VMAs {
		e.Msg(1, func(ve *pbuf.Encoder) {
			ve.Fixed64(1, v.Start)
			ve.Fixed64(2, v.End)
			ve.Uint(3, uint64(v.Perm))
			ve.String(4, v.Name)
			ve.String(5, v.Backing)
			ve.String(6, v.BackSection)
			ve.Bool(7, v.Anon)
		})
	}
	for _, mod := range mm.Modules {
		e.Msg(2, func(me *pbuf.Encoder) {
			me.String(1, mod.Name)
			me.Fixed64(2, mod.Lo)
			me.Fixed64(3, mod.Hi)
		})
	}
	return e.Finish()
}

func unmarshalMM(data []byte) (*MMImage, error) {
	mm := &MMImage{}
	d := pbuf.NewDecoder(data)
	for d.Next() {
		switch d.Field() {
		case 1:
			var v VMAEntry
			d.Msg(func(vd *pbuf.Decoder) error {
				for vd.Next() {
					switch vd.Field() {
					case 1:
						v.Start = vd.Fixed64()
					case 2:
						v.End = vd.Fixed64()
					case 3:
						v.Perm = uint8(vd.Uint())
					case 4:
						v.Name = vd.String()
					case 5:
						v.Backing = vd.String()
					case 6:
						v.BackSection = vd.String()
					case 7:
						v.Anon = vd.Bool()
					default:
						vd.Skip()
					}
				}
				return nil
			})
			mm.VMAs = append(mm.VMAs, v)
		case 2:
			var mod ModuleEntry
			d.Msg(func(md *pbuf.Decoder) error {
				for md.Next() {
					switch md.Field() {
					case 1:
						mod.Name = md.String()
					case 2:
						mod.Lo = md.Fixed64()
					case 3:
						mod.Hi = md.Fixed64()
					default:
						md.Skip()
					}
				}
				return nil
			})
			mm.Modules = append(mm.Modules, mod)
		default:
			d.Skip()
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: mm: %v", ErrBadImage, err)
	}
	return mm, nil
}

func marshalPageMap(pm *PageMapImage) []byte {
	var e pbuf.Encoder
	for _, pn := range pm.PageNumbers {
		e.Uint(1, pn)
	}
	return e.Finish()
}

func unmarshalPageMap(data []byte) (*PageMapImage, error) {
	pm := &PageMapImage{}
	d := pbuf.NewDecoder(data)
	for d.Next() {
		if d.Field() == 1 {
			pm.PageNumbers = append(pm.PageNumbers, d.Uint())
		} else {
			d.Skip()
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: pagemap: %v", ErrBadImage, err)
	}
	return pm, nil
}

func marshalFiles(f *FilesImage) []byte {
	var e pbuf.Encoder
	for _, fe := range f.Files {
		e.Msg(1, func(fe2 *pbuf.Encoder) {
			fe2.Uint(1, uint64(fe.FD))
			fe2.Uint(2, uint64(fe.Kind))
			fe2.Uint(3, uint64(fe.StdNo))
			fe2.Uint(4, uint64(fe.Port))
			fe2.Uint(5, fe.ConnID)
			fe2.Bool(6, fe.SideA)
		})
	}
	return e.Finish()
}

func unmarshalFiles(data []byte) (*FilesImage, error) {
	f := &FilesImage{}
	d := pbuf.NewDecoder(data)
	for d.Next() {
		if d.Field() != 1 {
			d.Skip()
			continue
		}
		var fe FileEntry
		d.Msg(func(fd *pbuf.Decoder) error {
			for fd.Next() {
				switch fd.Field() {
				case 1:
					fe.FD = int(fd.Uint())
				case 2:
					fe.Kind = uint8(fd.Uint())
				case 3:
					fe.StdNo = int(fd.Uint())
				case 4:
					fe.Port = uint16(fd.Uint())
				case 5:
					fe.ConnID = fd.Uint()
				case 6:
					fe.SideA = fd.Bool()
				default:
					fd.Skip()
				}
			}
			return nil
		})
		f.Files = append(f.Files, fe)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: files: %v", ErrBadImage, err)
	}
	return f, nil
}

// sortPIDsParentFirst orders pids so that parents restore before
// children.
func sortPIDsParentFirst(pids []int, parent map[int]int) {
	depth := func(pid int) int {
		d := 0
		for p := parent[pid]; p != 0; p = parent[p] {
			d++
			if d > len(pids) {
				break
			}
		}
		return d
	}
	slices.SortFunc(pids, func(a, b int) int {
		return cmp.Or(cmp.Compare(depth(a), depth(b)), cmp.Compare(a, b))
	})
}
