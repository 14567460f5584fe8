package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/dynacut/dynacut/internal/faultinject"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: RecStart, Replica: 6, Wave: 4, Attempt: 2},
		{Kind: RecIntent, Replica: 0, Wave: 0, Attempt: 1, VClock: 10},
		{Kind: RecOutcome, Replica: 0, Wave: 0, Attempt: 1, Outcome: OutcomeCommitted, Ticks: 65, Ident: 0xdeadbeef, VClock: 75},
		{Kind: RecWaveDone, Wave: 0, VClock: 75},
		{Kind: RecOutcome, Replica: 1, Wave: 1, Attempt: 2, Outcome: OutcomeFailed, Ticks: 3, VClock: 90,
			Note: "lease retry budget exhausted"},
		{Kind: RecDone, Replica: 5, VClock: 99},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	j := NewJournal()
	want := sampleRecords()
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(j.Records()) != len(want) {
		t.Fatalf("Len = %d, want %d", len(j.Records()), len(want))
	}
	got, err := DecodeJournal(j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(j.Records(), want) {
		t.Fatal("Records() disagrees with appended records")
	}
}

func TestJournalRejectsForeignBytes(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("txt"), []byte("this is not a journal")} {
		if _, err := DecodeJournal(data); !errors.Is(err, ErrJournalMagic) {
			t.Fatalf("DecodeJournal(%q) = %v, want ErrJournalMagic", data, err)
		}
	}
}

// TestJournalTornTailTolerated: a crash can only damage the final
// frame (short header, short payload, or a half-written frame whose
// CRC cannot match). Every such cut must decode to the clean prefix,
// silently.
func TestJournalTornTailTolerated(t *testing.T) {
	j := NewJournal()
	want := sampleRecords()
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	full := j.Bytes()
	lastFrame := 8 + len(encodeRecord(want[len(want)-1]))
	for cut := len(full) - 1; cut > len(full)-lastFrame; cut-- {
		got, err := DecodeJournal(full[:cut])
		if err != nil {
			t.Fatalf("cut at %d (of %d): %v", cut, len(full), err)
		}
		if len(got) != len(want)-1 {
			t.Fatalf("cut at %d: decoded %d records, want %d", cut, len(got), len(want)-1)
		}
	}
	// Corrupting the final frame's payload is the same story: its CRC
	// fails, and since it is the tail it is dropped, not fatal.
	dam := append([]byte(nil), full...)
	dam[len(dam)-1] ^= 0xff
	got, err := DecodeJournal(dam)
	if err != nil {
		t.Fatalf("tail corruption should be tolerated: %v", err)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("tail corruption: decoded %d records, want %d", len(got), len(want)-1)
	}
}

// TestJournalInteriorCorruptionFatal: the same one-byte damage
// anywhere before the final frame is not a crash signature — an
// append-only log cannot lose interior bytes — so decode must refuse.
func TestJournalInteriorCorruptionFatal(t *testing.T) {
	j := NewJournal()
	want := sampleRecords()
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	full := j.Bytes()
	lastFrame := 8 + len(encodeRecord(want[len(want)-1]))
	// Flip one byte in every interior frame's payload (skip the 8-byte
	// frame headers: damaging a length field can masquerade as a torn
	// tail, which is fine for crash tolerance but not what this test
	// pins down).
	off := 4
	for i := 0; i < len(want)-1; i++ {
		payloadStart := off + 8
		dam := append([]byte(nil), full...)
		dam[payloadStart] ^= 0x01
		if _, err := DecodeJournal(dam); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("record %d payload corruption -> %v, want ErrJournalCorrupt", i, err)
		}
		off = payloadStart + len(encodeRecord(want[i]))
	}
	if off != len(full)-lastFrame {
		t.Fatalf("frame walk ended at %d, want %d", off, len(full)-lastFrame)
	}
}

// TestJournalTornAppendFault: an injected fleet.journal.append fault
// must leave exactly the damage a crashed write would — half a frame —
// and the record uncommitted, so decode yields the clean prefix.
func TestJournalTornAppendFault(t *testing.T) {
	inj := faultinject.New(7)
	inj.FailAt(faultinject.SiteFleetJournalAppend, 2)
	j := NewJournal()
	j.SetFaultHook(inj)
	recs := sampleRecords()
	if err := j.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	err := j.Append(recs[1])
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn append = %v, want injected fault", err)
	}
	if len(j.Records()) != 1 {
		t.Fatalf("torn record counted as committed: Len = %d", len(j.Records()))
	}
	data := j.Bytes()
	wholeFrame := 8 + len(encodeRecord(recs[1]))
	clean := NewJournal()
	if err := clean.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if len(data) != len(clean.Bytes())+wholeFrame/2 {
		t.Fatalf("torn write left %d bytes, want clean prefix %d + half frame %d",
			len(data), len(clean.Bytes()), wholeFrame/2)
	}
	got, err := DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], recs[0]) {
		t.Fatalf("decode after torn append: %+v", got)
	}
}

// TestJournalResumeContinuesLog: journalFrom must trim the torn tail
// and keep appending on a clean frame boundary — the resumed
// controller writes into the same log it decoded.
func TestJournalResumeContinuesLog(t *testing.T) {
	j := NewJournal()
	recs := sampleRecords()
	for _, r := range recs[:3] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a torn tail after the third record.
	data := append(j.Bytes(), 0x42, 0x42, 0x42)
	decoded, err := DecodeJournal(data)
	if err != nil || len(decoded) != 3 {
		t.Fatalf("decode: %d records, err %v", len(decoded), err)
	}
	j2 := journalFrom(decoded)
	if err := j2.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJournal(j2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:4]) {
		t.Fatalf("resumed log:\n got %+v\nwant %+v", got, recs[:4])
	}
	if !bytes.HasPrefix(j2.Bytes(), j.Bytes()) {
		t.Fatal("resumed log does not extend the clean prefix")
	}
}

// TestJournalAttestKindsRoundTrip: the attestation record kinds and every
// attestation verdict survive encode/decode through a live Journal.
func TestJournalAttestKindsRoundTrip(t *testing.T) {
	j := NewJournal()
	want := []Record{
		{Kind: RecStart, Replica: 64, Wave: 2, Attempt: 8},
		{Kind: RecAttest, Replica: 7, Wave: 0, Attempt: int32(VerdictClean), Ident: 0xaabbccdd, Ticks: 12, VClock: 5},
		{Kind: RecRepair, Replica: 7, Wave: 0, Attempt: 1, Ticks: 2, VClock: 6},
		{Kind: RecAttest, Replica: 7, Wave: 0, Attempt: int32(VerdictForeign), Ticks: 2, VClock: 7},
		{Kind: RecQuarantine, Replica: 9, Wave: 1, Attempt: 3, VClock: 8, Note: "budget exhausted"},
		{Kind: RecAttest, Replica: 9, Wave: -1, Attempt: int32(VerdictReadmit), VClock: 9, Note: "readmitted on resume"},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeJournal(j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// journalFrom over a decode is byte-identical — the resume
	// determinism anchor.
	if j2 := journalFrom(got); !reflect.DeepEqual(j2.Bytes(), j.Bytes()) {
		t.Fatal("journalFrom re-encode not byte-identical")
	}
}

// FuzzDecodeJournal: arbitrary bytes, and valid journals with injected
// truncation and corruption, must never panic or mis-parse — torn
// tails drop cleanly, decodable journals round-trip through the
// re-encode bit for bit (record-wise).
func FuzzDecodeJournal(f *testing.F) {
	samples := sampleRecords()
	short := journalFrom(samples[:3]).Bytes()
	plain := journalFrom(samples).Bytes()
	attested := journalFrom(append(append([]Record(nil), samples...),
		Record{Kind: RecAttest, Replica: 1, Attempt: int32(VerdictRepaired), Ticks: 3},
		Record{Kind: RecQuarantine, Replica: 2, Attempt: 3, Note: "q"})).Bytes()
	f.Add(short)
	f.Add(plain)
	f.Add(attested)
	f.Add(attested[:len(attested)-5])     // torn tail
	f.Add(plain[:7])                      // torn first frame header
	f.Add([]byte("DJL3"))                 // wrong byte order for the magic
	f.Add([]byte{0x33, 0x4c, 0x4a, 0x44}) // bare magic, no frames
	dam := append([]byte(nil), attested...)
	dam[12] ^= 0xff // interior corruption
	f.Add(dam)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeJournal(data)
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("error %v returned %d records", err, len(recs))
			}
			return
		}
		// Whatever decoded must re-encode and decode to the same
		// records: the resume path depends on it.
		j := journalFrom(recs)
		again, err := DecodeJournal(j.Bytes())
		if err != nil {
			t.Fatalf("re-encode of a valid decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, recs)
		}
	})
}

// TestJournalAttestNamesStable: the journal kinds and sweep verdicts
// render stable names — these strings land in demo output and logs.
func TestJournalAttestNamesStable(t *testing.T) {
	for want, got := range map[string]string{
		"attest":     RecAttest.String(),
		"repair":     RecRepair.String(),
		"quarantine": RecQuarantine.String(),
		"start":      RecStart.String(),
		"intent":     RecIntent.String(),
		"outcome":    RecOutcome.String(),
		"wave-done":  RecWaveDone.String(),
		"halt":       RecHalt.String(),
		"resume":     RecResume.String(),
		"done":       RecDone.String(),
		"clean":      VerdictClean.String(),
		"repaired":   VerdictRepaired.String(),
		"skew":       VerdictSkew.String(),
		"foreign":    VerdictForeign.String(),
		"readmit":    VerdictReadmit.String(),
	} {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := RecKind(99).String(); got == "" {
		t.Error("unknown RecKind renders empty")
	}
	if got := AttestVerdict(99).String(); got == "" {
		t.Error("unknown AttestVerdict renders empty")
	}
}
