package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

// walTxBytes frames one committed transaction for tests.
func walTxBytes(seq uint64, numPages int, free []PageID, meta []byte) []byte {
	tx := walTx{seq: seq, state: &walState{numPages: numPages, free: free, meta: meta}}
	return tx.records(nil)
}

// walPageRecord frames a PAGE record the way earlier builds journaled an
// in-place update: u32 page id, u32 length, the image.
func walPageRecord(id PageID, data []byte) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(id))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(data)))
	return appendWALRecord(nil, walRecPage, append(payload, data...))
}

// encodeWALNote frames one opaque note of the backend's owner.
func encodeWALNote(data []byte) []byte { return appendWALRecord(nil, walRecNote, data) }

// walNotesBytes frames one light transaction: notes and a commit marker.
func walNotesBytes(seq uint64, notes ...string) []byte {
	tx := walTx{seq: seq}
	for _, n := range notes {
		tx.notes = append(tx.notes, []byte(n))
	}
	return tx.records(nil)
}

// TestWALScanNotes: NOTE records come back with their transactions, in
// commit order, whether the transaction is light (no STATE: the state is
// the previous one's) or carries a STATE beside them; committedEnd is
// where the last commit marker ends.
func TestWALScanNotes(t *testing.T) {
	tx1 := walTxBytes(1, 2, []PageID{1}, []byte("m1"))
	tx2 := walNotesBytes(2, "insert a", "insert b")
	both := walTx{seq: 3, notes: [][]byte{[]byte("saved")}, state: &walState{numPages: 3, meta: []byte("m3")}}
	tx3 := both.records(nil)
	tx4 := walNotesBytes(4, "delete a")
	log := bytes.Join([][]byte{tx1, tx2, tx3, tx4}, nil)
	tail := encodeWALNote([]byte("never committed"))

	res, err := scanWAL(append(append([]byte(nil), log...), tail...), 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.txs) != 4 || res.lastSeq != 4 {
		t.Fatalf("decoded %d txs, lastSeq %d; want 4 and 4", len(res.txs), res.lastSeq)
	}
	if res.txs[1].state != nil || res.txs[3].state != nil {
		t.Errorf("light transactions decoded with a state")
	}
	if st := res.txs[2].state; st == nil || st.numPages != 3 || string(st.meta) != "m3" {
		t.Errorf("notes + STATE transaction decoded wrong: %+v", res.txs[2])
	}
	var got []string
	for _, n := range res.notes() {
		got = append(got, string(n))
	}
	if want := "insert a|insert b|saved|delete a"; strings.Join(got, "|") != want {
		t.Errorf("notes = %q, want %q", strings.Join(got, "|"), want)
	}
	if res.committedEnd != len(log) || res.info.DiscardedRecords != 1 {
		t.Errorf("committedEnd %d (log %d), %d discarded; want the cut before the 1 uncommitted note",
			res.committedEnd, len(log), res.info.DiscardedRecords)
	}
}

// TestWALScanRoundTrip: a log of well-formed committed transactions must
// decode back to exactly the transactions that were framed.
func TestWALScanRoundTrip(t *testing.T) {
	var log []byte
	log = append(log, walTxBytes(1, 2, nil, []byte("m1"))...)
	log = append(log, walTxBytes(2, 3, []PageID{2}, []byte("m2"))...)

	res, err := scanWAL(log, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.txs) != 2 || res.lastSeq != 2 {
		t.Fatalf("decoded %d txs, lastSeq %d; want 2 txs, lastSeq 2", len(res.txs), res.lastSeq)
	}
	if res.info.DiscardedRecords != 0 || res.info.TornTailBytes != 0 || res.info.DuplicateCommits != 0 {
		t.Errorf("clean log reported dirt: %+v", res.info)
	}
	tx := res.txs[1]
	if tx.seq != 2 || len(tx.notes) != 0 {
		t.Errorf("tx 2 decoded wrong: %+v", tx)
	}
	if tx.state.numPages != 3 || len(tx.state.free) != 1 || tx.state.free[0] != 2 ||
		string(tx.state.meta) != "m2" {
		t.Errorf("tx 2 state decoded wrong: %+v", tx.state)
	}
}

// TestWALScanTornTail: any truncation point inside the log must decode to
// only the transactions fully committed before it — never an error, never
// a partial transaction.
func TestWALScanTornTail(t *testing.T) {
	tx1 := walTxBytes(1, 1, nil, bytes.Repeat([]byte{1}, 32))
	tx2 := walTxBytes(2, 1, nil, bytes.Repeat([]byte{2}, 32))
	log := append(append([]byte(nil), tx1...), tx2...)

	for cut := 0; cut <= len(log); cut++ {
		res, err := scanWAL(log[:cut], 256)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 0
		if cut >= len(tx1) {
			want = 1
		}
		if cut == len(log) {
			want = 2
		}
		if len(res.txs) != want {
			t.Fatalf("cut %d: %d txs, want %d", cut, len(res.txs), want)
		}
		if cut < len(log) && res.info.TornTailBytes == 0 && res.info.DiscardedRecords == 0 {
			// Every proper cut must be visible in the report (either a torn
			// frame or intact-but-uncommitted records), except cuts exactly
			// between transactions, which look clean... but still discard tx2.
			if cut != len(tx1) && cut != 0 {
				t.Fatalf("cut %d: truncation invisible in %+v", cut, res.info)
			}
		}
	}
}

// TestWALScanZeroTail: zeros after the last record are the log's unwritten
// end — the region commits write into — and not a torn tail. Committed
// transactions followed by zeros replay with nothing torn; a torn record
// followed by zeros is torn up to its last non-zero byte; a body of zeros
// alone reports nothing, and a file whose log is such a body opens with no
// RecoveryInfo and leaves a bare header.
func TestWALScanZeroTail(t *testing.T) {
	log := append(walTxBytes(1, 2, []PageID{1}, []byte("m")), walNotesBytes(2, "insert", "delete")...)
	zeros := make([]byte, 4096)
	torn := encodeWALNote([]byte("torn"))
	torn = torn[:len(torn)-2]
	tornWritten := len(bytes.TrimRight(torn, "\x00"))

	for _, tc := range []struct {
		name                string
		body                []byte
		txs, torn, walBytes int
	}{
		{"committed then zeros", append(append([]byte(nil), log...), zeros...), 2, 0, len(log)},
		{"torn record then zeros", bytes.Join([][]byte{log, torn, zeros}, nil), 2, tornWritten, len(log) + tornWritten},
		{"zeros alone", zeros, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := scanWAL(tc.body, 256)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.txs) != tc.txs || res.committedEnd != tc.walBytes-tc.torn ||
				res.info.TornTailBytes != int64(tc.torn) || res.info.WALBytes != int64(tc.walBytes) ||
				res.info.DiscardedRecords != 0 {
				t.Errorf("%d txs, committed end %d, %+v; want %d txs, %d torn bytes, %d written",
					len(res.txs), res.committedEnd, res.info, tc.txs, tc.torn, tc.walBytes)
			}
		})
	}

	path := tempIndex(t)
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(path), append(encodeWALHeader(256), zeros...), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ri := re.RecoveryInfo(); ri != nil {
		t.Errorf("a log of zeros reports recovery %+v", ri)
	}
	if got := walFileSize(t, path); got != walHeaderSize {
		t.Errorf("log file of %d bytes after the open's checkpoint, want the bare header", got)
	}
}

// TestWALScanBitFlipTail: flipping any byte of the final record makes it
// (and only it) a torn tail — committed prefixes stay decodable.
func TestWALScanBitFlipTail(t *testing.T) {
	tx1 := walTxBytes(1, 1, nil, nil)
	commit2 := encodeWALCommit(2)
	state2 := encodeWALState(1, nil, nil)
	log := append(append(append([]byte(nil), tx1...), state2...), commit2...)

	for i := len(tx1); i < len(log); i++ {
		mutated := append([]byte(nil), log...)
		mutated[i] ^= 0x80
		res, err := scanWAL(mutated, 256)
		if err != nil {
			// A flip can turn a record into semantic nonsense with a
			// recomputed... no: the CRC no longer matches, so every flip is
			// a torn tail, not corruption.
			t.Fatalf("flip at %d: %v", i, err)
		}
		if len(res.txs) != 1 || res.lastSeq != 1 {
			t.Fatalf("flip at %d: %d txs (lastSeq %d), want only tx 1", i, len(res.txs), res.lastSeq)
		}
	}
}

// TestWALScanDuplicateCommit: a commit marker whose sequence number was
// already applied is skipped idempotently and counted.
func TestWALScanDuplicateCommit(t *testing.T) {
	log := walTxBytes(1, 1, nil, []byte{9})
	log = append(log, encodeWALCommit(1)...) // bare duplicate
	// A full duplicated transaction (state+commit with an old seq) must
	// also be skipped.
	log = append(log, walTxBytes(1, 1, nil, []byte{7})...)

	res, err := scanWAL(log, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.txs) != 1 || res.txs[0].state.meta[0] != 9 {
		t.Fatalf("duplicate commit replayed: %d txs", len(res.txs))
	}
	if res.info.DuplicateCommits != 2 {
		t.Errorf("DuplicateCommits = %d, want 2", res.info.DuplicateCommits)
	}
}

// TestWALScanUncommittedTail: intact records after the last commit are
// discarded and counted, not replayed.
func TestWALScanUncommittedTail(t *testing.T) {
	log := walTxBytes(1, 1, nil, nil)
	log = append(log, encodeWALNote([]byte{1, 2, 3})...)
	log = append(log, encodeWALState(1, nil, nil)...)
	res, err := scanWAL(log, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.txs) != 1 || res.info.DiscardedRecords != 2 {
		t.Fatalf("txs=%d discarded=%d, want 1 and 2", len(res.txs), res.info.DiscardedRecords)
	}
}

// TestWALScanCorrupt drives every semantically-invalid-but-checksummed
// shape to a wrapped ErrWALCorrupt — among them every shape holding a PAGE
// record, which only an earlier build's in-place update wrote.
func TestWALScanCorrupt(t *testing.T) {
	cases := []struct {
		name string
		log  []byte
	}{
		{"commit without state", encodeWALCommit(1)},
		{"page record from an in-place update", bytes.Join([][]byte{walTxBytes(1, 2, nil, nil),
			walPageRecord(0, bytes.Repeat([]byte{1}, 256)), encodeWALState(2, nil, nil), encodeWALCommit(2)}, nil)},
		{"stateless commit with a page image", append(walTxBytes(1, 2, nil, nil),
			append(append(walPageRecord(0, []byte{1}), encodeWALNote([]byte("n"))...), encodeWALCommit(2)...)...)},
		{"stateless commit without notes after a state", append(walTxBytes(1, 2, nil, nil), encodeWALCommit(2)...)},
		{"notes-only transaction opening the log", walNotesBytes(1, "n")},
		{"two states", append(append(encodeWALState(1, nil, nil), encodeWALState(1, nil, nil)...), encodeWALCommit(1)...)},
		{"unknown record type", appendWALRecord(nil, 99, []byte("??"))},
		{"short page record", appendWALRecord(nil, walRecPage, []byte{1, 2, 3})},
		{"page image exceeds block", func() []byte {
			return walPageRecord(0, bytes.Repeat([]byte{1}, 300)) // block size is 256
		}()},
		{"page beyond state geometry", append(walPageRecord(7, []byte{1}), walTxBytes(1, 2, nil, nil)...)},
		{"short commit record", appendWALRecord(nil, walRecCommit, []byte{1})},
		{"short state record", appendWALRecord(nil, walRecState, []byte{0, 0})},
		{"state freelist out of range", func() []byte {
			st := encodeWALState(2, []PageID{5}, nil)
			return append(st, encodeWALCommit(1)...)
		}()},
		{"state freelist duplicate", func() []byte {
			st := encodeWALState(3, []PageID{1, 1}, nil)
			return append(st, encodeWALCommit(1)...)
		}()},
		{"state meta overflows superblock", func() []byte {
			return encodeWALState(1, nil, bytes.Repeat([]byte{1}, 250)) // 256-byte block, 24-byte header
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scanWAL(tc.log, 256)
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("scanWAL = %v, want ErrWALCorrupt", err)
			}
		})
	}
}

// TestWALHeader covers header round-trip and mismatch reporting.
func TestWALHeader(t *testing.T) {
	hdr := encodeWALHeader(4096)
	if len(hdr) != walHeaderSize {
		t.Fatalf("header is %d bytes, want %d", len(hdr), walHeaderSize)
	}
	if err := checkWALHeader(hdr, 4096); err != nil {
		t.Fatalf("checkWALHeader = %v, want nil", err)
	}
	if err := checkWALHeader(hdr, 512); !errors.Is(err, ErrWALCorrupt) {
		t.Errorf("block-size mismatch: %v, want ErrWALCorrupt", err)
	}
	bad := append([]byte(nil), hdr...)
	bad[0] = 'X'
	if err := checkWALHeader(bad, 4096); !errors.Is(err, ErrWALCorrupt) {
		t.Errorf("bad magic: %v, want ErrWALCorrupt", err)
	}
	vbad := append([]byte(nil), hdr...)
	binary.LittleEndian.PutUint16(vbad[6:8], 9)
	if err := checkWALHeader(vbad, 4096); !errors.Is(err, ErrWALCorrupt) {
		t.Errorf("bad version: %v, want ErrWALCorrupt", err)
	}
	v1 := append([]byte(nil), hdr...)
	binary.LittleEndian.PutUint16(v1[6:8], 1)
	if err := checkWALHeader(v1, 4096); !errors.Is(err, ErrWALCorrupt) {
		t.Errorf("version-1 header: %v, want ErrWALCorrupt", err)
	}
}

// FuzzWALScan fuzzes the whole decode path. scanWAL must never panic and
// must uphold its invariants on arbitrary bytes: decoded transactions are
// geometry-consistent and the report never exceeds the input.
func FuzzWALScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(walTxBytes(1, 2, []PageID{1}, []byte("meta")))
	f.Add(walTxBytes(1, 1, nil, nil)[:7]) // torn frame
	f.Add(encodeWALCommit(1))             // corrupt: commit without state
	f.Add(append(walTxBytes(1, 1, nil, nil), encodeWALCommit(1)...))
	f.Add(appendWALRecord(nil, 200, []byte{1, 2, 3}))
	long := walTxBytes(3, 4, []PageID{0, 2}, bytes.Repeat([]byte{7}, 200))
	f.Add(long)
	f.Add(long[:len(long)-2])
	// No NOTE anywhere: every transaction carries its STATE.
	f.Add(append(walTxBytes(1, 1, nil, []byte("v1")), walTxBytes(2, 2, []PageID{1}, []byte("v1"))...))
	// Version 2: a lone NOTE, light transactions after a STATE, notes beside
	// a STATE, and the two shapes that must be corruption — a transaction
	// holding an earlier build's page image, a notes-only log.
	f.Add(encodeWALNote([]byte("note")))
	light := append(walTxBytes(1, 2, []PageID{1}, []byte("m")), walNotesBytes(2, "insert", "delete")...)
	f.Add(light)
	f.Add(light[:len(light)-3])
	both := walTx{seq: 3, notes: [][]byte{[]byte("saved")}, state: &walState{numPages: 2}}
	f.Add(append(append([]byte(nil), light...), both.records(nil)...))
	f.Add(append(append(append(append([]byte(nil), light...), walPageRecord(0, []byte{1})...), encodeWALNote([]byte("n"))...), encodeWALCommit(3)...))
	f.Add(walNotesBytes(1, "orphan"))
	// The zero-filled region commits write into: committed transactions
	// followed by zeros, a torn record followed by zeros, zeros alone.
	zeros := make([]byte, 300)
	f.Add(append(append([]byte(nil), light...), zeros...))
	f.Add(append(append([]byte(nil), light[:len(light)-3]...), zeros...))
	f.Add(zeros)

	f.Fuzz(func(t *testing.T, data []byte) {
		const blockSize = 256
		res, err := scanWAL(data, blockSize)
		// Whatever the outcome, the written part ends at a non-zero byte
		// (the torn tail's last, if there is one), and only zeros follow it.
		written, torn := res.info.WALBytes, res.info.TornTailBytes
		if written > int64(len(data)) || torn < 0 || torn > written ||
			len(bytes.TrimRight(data[written:], "\x00")) != 0 || (torn > 0 && data[written-1] == 0) {
			t.Fatalf("WALBytes %d, TornTailBytes %d in %d bytes (err %v)", written, torn, len(data), err)
		}
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("non-sentinel error: %v", err)
			}
			if torn != 0 {
				t.Fatalf("corrupt log reports %d torn bytes", torn)
			}
			return
		}
		if res.committedEnd < 0 || int64(res.committedEnd)+torn > written {
			t.Fatalf("committedEnd %d with %d torn bytes in %d written", res.committedEnd, torn, written)
		}
		var lastSeq uint64
		var canonical []byte
		for i, tx := range res.txs {
			if tx.seq <= lastSeq {
				t.Fatalf("non-monotonic commit seq %d after %d", tx.seq, lastSeq)
			}
			lastSeq = tx.seq
			canonical = append(canonical, tx.records(nil)...)
			if tx.state == nil {
				// A light transaction: notes, nothing else, never first.
				if i == 0 || len(tx.notes) == 0 {
					t.Fatalf("tx %d (#%d) has no state and %d notes", tx.seq, i, len(tx.notes))
				}
				continue
			}
			if tx.state.numPages < 0 {
				t.Fatalf("negative page count")
			}
			for _, id := range tx.state.free {
				if int(id) >= tx.state.numPages {
					t.Fatalf("tx %d: free page %d outside geometry", tx.seq, id)
				}
			}
		}
		if lastSeq != res.lastSeq {
			t.Fatalf("lastSeq %d, decoded max %d", res.lastSeq, lastSeq)
		}
		// Canonical re-encode: the decoded transactions, framed the way
		// Commit frames them, scan back to themselves with nothing left
		// over. (The input may differ from it: duplicates, uncommitted
		// records, a torn tail, records of one transaction in another order.)
		again, err := scanWAL(canonical, blockSize)
		if err != nil {
			t.Fatalf("re-encoded log does not scan: %v", err)
		}
		if again.committedEnd != len(canonical) || again.info.DiscardedRecords != 0 ||
			again.info.DuplicateCommits != 0 || again.info.TornTailBytes != 0 {
			t.Fatalf("re-encoded log is not clean: end %d of %d, %+v", again.committedEnd, len(canonical), again.info)
		}
		if !reflect.DeepEqual(again.txs, res.txs) && (len(again.txs) != 0 || len(res.txs) != 0) {
			t.Fatalf("re-encoded log decodes to different transactions")
		}
	})
}
