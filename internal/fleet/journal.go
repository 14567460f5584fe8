package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// The rollout journal is the controller's crash-safety mechanism: an
// append-only, CRC-checked record stream of everything the controller
// decided — step intents, step outcomes, wave summaries, halts. A
// controller that dies mid-rollout leaves the journal behind, and
// ResumeController rebuilds the rollout's exact progress from it:
// committed replicas are never rewritten again, torn intent windows
// are re-verified against the live replica, and the halt protocol is
// completed if the crash interrupted it.
//
// The format is deliberately dumb: a magic word, then length-prefixed
// frames, each frame carrying a CRC-32C over its payload. A crash (or
// an injected fleet.journal.append fault) can tear the final frame;
// DecodeJournal tolerates exactly that — a short or corrupt *tail* is
// dropped, while corruption anywhere earlier is an error.

// Journal errors.
var (
	// ErrJournalCorrupt reports CRC or framing damage before the
	// final record — damage a torn tail write cannot explain.
	ErrJournalCorrupt = errors.New("fleet: journal corrupt")
	// ErrJournalMagic reports bytes that are not a rollout journal.
	ErrJournalMagic = errors.New("fleet: not a rollout journal")
)

// journalMagic opens every journal: "DJL3" read as a little-endian
// word. Journals live in memory only, so this is the one format.
const journalMagic uint32 = 0x444a_4c33

// RecKind enumerates journal record types.
type RecKind uint8

const (
	// RecStart opens a rollout: Replica holds the fleet size, Wave the
	// wave count, Attempt the worker-lane count.
	RecStart RecKind = iota + 1
	// RecIntent is appended when a step is leased, before its rewrite
	// runs; Ident holds the fingerprint of the replica's expected text
	// root at lease (rootIdent of Customizer.Attestation().Root). An
	// intent with no later outcome for the same replica is a torn
	// window: the controller died after leasing, and resume classifies
	// the replica by its live text root instead of trusting the journal.
	RecIntent
	// RecOutcome resolves a step: Outcome, Ticks and (for commits) the
	// Ident of the committed text root (rootIdent of the resealed
	// Customizer.Attestation().Root).
	RecOutcome
	// RecWaveDone closes a wave: Wave is the index, Attempt the
	// failure count.
	RecWaveDone
	// RecHalt marks the rollout halted at wave Wave. Outcome records
	// for the halted wave's pristine restores follow it; a crash in
	// between leaves restores for resume to finish.
	RecHalt
	// RecResume marks a controller restart: Replica holds how many
	// replicas the resumed controller skipped as already committed.
	RecResume
	// RecDone closes the rollout: Replica holds the committed count.
	RecDone
	// RecAttest records one replica's attestation verdict.
	// Attempt holds the AttestVerdict, Ident the first four bytes of
	// the attested root, Ticks the pages checked.
	RecAttest
	// RecRepair records an in-place anti-entropy repair attempt:
	// Attempt is the try number, Ticks the pages repaired, Outcome the
	// step outcome after the repair.
	RecRepair
	// RecQuarantine records a replica drained from the fleet after its
	// repair budget was exhausted: Attempt holds the failed try count.
	// A later RecAttest with VerdictReadmit lifts it.
	RecQuarantine
)

func (k RecKind) String() string {
	switch k {
	case RecStart:
		return "start"
	case RecIntent:
		return "intent"
	case RecOutcome:
		return "outcome"
	case RecWaveDone:
		return "wave-done"
	case RecHalt:
		return "halt"
	case RecResume:
		return "resume"
	case RecDone:
		return "done"
	case RecAttest:
		return "attest"
	case RecRepair:
		return "repair"
	case RecQuarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("RecKind(%d)", int(k))
	}
}

// AttestVerdict is the per-replica result of one attestation sweep,
// journaled in a RecAttest record's Attempt field.
type AttestVerdict int32

const (
	// VerdictClean: live text matched the oracle root.
	VerdictClean AttestVerdict = iota
	// VerdictRepaired: text had diverged and was repaired in place.
	VerdictRepaired
	// VerdictSkew: the cheap collected root diverged but the
	// authoritative page-by-page attestation found the text clean —
	// the collection channel, not the text, was wrong.
	VerdictSkew
	// VerdictForeign: text held bytes outside the oracle's version
	// chain (still repaired from the store, but worth distinguishing).
	VerdictForeign
	// VerdictReadmit: a quarantined replica re-attested clean on
	// resume and rejoined the fleet.
	VerdictReadmit
)

func (v AttestVerdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictRepaired:
		return "repaired"
	case VerdictSkew:
		return "skew"
	case VerdictForeign:
		return "foreign"
	case VerdictReadmit:
		return "readmit"
	default:
		return fmt.Sprintf("AttestVerdict(%d)", int32(v))
	}
}

// Record is one journal entry. Field meaning varies by Kind (see the
// RecKind constants); unused fields are zero. VClock stamps the
// controller's virtual clock at append time — never wall time, so
// identical rollouts journal identical bytes.
type Record struct {
	Kind    RecKind
	Replica int32
	Wave    int32
	Attempt int32
	Outcome Outcome
	Ticks   uint64
	Ident   uint32
	VClock  uint64
	// Mode is the rewrite path a step actually took. It is set only on
	// outcome records of steps that ran; intents, verified-after-crash
	// outcomes and every other record leave it zero.
	Mode StepMode
	Note string
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord serializes one record payload (no frame header).
func encodeRecord(r Record) []byte {
	note := []byte(r.Note)
	if len(note) > 0xffff {
		note = note[:0xffff]
	}
	buf := make([]byte, 0, recHeaderLen+len(note))
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Replica))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Wave))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Attempt))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Outcome))
	buf = binary.LittleEndian.AppendUint64(buf, r.Ticks)
	buf = binary.LittleEndian.AppendUint32(buf, r.Ident)
	buf = binary.LittleEndian.AppendUint64(buf, r.VClock)
	buf = append(buf, byte(r.Mode))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(note)))
	buf = append(buf, note...)
	return buf
}

// recHeaderLen is the fixed prefix of an encoded record: kind (1),
// replica/wave/attempt/outcome/ident (4 each), ticks/vclock (8 each),
// mode (1), note length (2).
const recHeaderLen = 40

// decodeRecord parses one record payload.
func decodeRecord(p []byte) (Record, error) {
	if len(p) < recHeaderLen {
		return Record{}, fmt.Errorf("%w: short record payload (%d bytes)", ErrJournalCorrupt, len(p))
	}
	r := Record{
		Kind:    RecKind(p[0]),
		Replica: int32(binary.LittleEndian.Uint32(p[1:])),
		Wave:    int32(binary.LittleEndian.Uint32(p[5:])),
		Attempt: int32(binary.LittleEndian.Uint32(p[9:])),
		Outcome: Outcome(binary.LittleEndian.Uint32(p[13:])),
		Ticks:   binary.LittleEndian.Uint64(p[17:]),
		Ident:   binary.LittleEndian.Uint32(p[25:]),
		VClock:  binary.LittleEndian.Uint64(p[29:]),
		Mode:    StepMode(p[37]),
	}
	n := int(binary.LittleEndian.Uint16(p[38:]))
	if len(p) != recHeaderLen+n {
		return Record{}, fmt.Errorf("%w: record payload length %d, note claims %d", ErrJournalCorrupt, len(p), n)
	}
	r.Note = string(p[recHeaderLen:])
	return r, nil
}

// Journal is the append-only rollout log. Appends are CRC-framed and
// fault-injectable (faultinject.SiteFleetJournalAppend); a failed
// append leaves a torn half-frame behind, exactly what a crashed
// write would. Safe for concurrent use, though the controller appends
// only from its dispatch loop to keep record order deterministic.
type Journal struct {
	mu   sync.Mutex
	buf  []byte
	recs []Record
	hook kernel.FaultHook
}

// NewJournal creates an empty journal.
func NewJournal() *Journal {
	return &Journal{buf: binary.LittleEndian.AppendUint32(nil, journalMagic)}
}

// SetFaultHook installs the fault hook consulted on every append.
func (j *Journal) SetFaultHook(h kernel.FaultHook) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.hook = h
}

// Append frames, checksums and appends one record. An injected fault
// at fleet.journal.append tears the write: half the frame lands in
// the journal, the record is not committed, and the error is
// returned — the controller treats it as its own death.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	payload := encodeRecord(r)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	if j.hook != nil {
		if err := j.hook.Fault(faultinject.SiteFleetJournalAppend, int(r.Kind)); err != nil {
			j.buf = append(j.buf, frame[:len(frame)/2]...)
			return fmt.Errorf("fleet: journal append (%s record) torn: %w", r.Kind, err)
		}
	}
	j.buf = append(j.buf, frame...)
	j.recs = append(j.recs, r)
	return nil
}

// Bytes returns a copy of the serialized journal.
func (j *Journal) Bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]byte(nil), j.buf...)
}

// Records returns the committed records in append order. Torn appends
// are not included.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.recs...)
}

// DecodeJournal parses a serialized journal. A truncated or CRC-damaged
// final frame — the signature of a crash mid-append — is dropped
// silently; the same damage anywhere before the tail returns
// ErrJournalCorrupt, because an append-only log cannot lose interior
// records without foul play.
func DecodeJournal(data []byte) ([]Record, error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != journalMagic {
		return nil, ErrJournalMagic
	}
	var recs []Record
	off := 4
	for off < len(data) {
		if len(data)-off < 8 {
			break // torn tail: frame header incomplete
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if len(data)-off-8 < n {
			break // torn tail: payload incomplete
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			if off+8+n == len(data) {
				break // torn tail: final frame fails its CRC
			}
			return nil, fmt.Errorf("%w: CRC mismatch at offset %d (record %d)", ErrJournalCorrupt, off, len(recs))
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			if off+8+n == len(data) {
				break
			}
			return nil, err
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	return recs, nil
}

// journalFrom rebuilds an appendable journal over previously decoded
// records: resume continues the same log. The committed records are
// re-encoded into a fresh buffer rather than sliced out of the old
// bytes — the journal round-trips byte-identically (resume determinism
// is preserved) and any torn tail is dropped.
func journalFrom(recs []Record) *Journal {
	j := NewJournal()
	j.recs = append([]Record(nil), recs...)
	for _, r := range recs {
		payload := encodeRecord(r)
		j.buf = binary.LittleEndian.AppendUint32(j.buf, uint32(len(payload)))
		j.buf = binary.LittleEndian.AppendUint32(j.buf, crc32.Checksum(payload, crcTable))
		j.buf = append(j.buf, payload...)
	}
	return j
}
