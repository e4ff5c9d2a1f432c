package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Write-ahead log: the sidecar `.wal` file that makes FileBackend
// mutations atomic and durable. No page is ever rewritten in place (see
// FileBackend), so the log holds no page images: every transaction
// appends, in order,
//
//   - one NOTE record per FileBackend.Note call: opaque bytes of the
//     backend's owner, a logical description of a change that touched no
//     page (the dynamic index logs "insert item" / "delete item" this way),
//   - one STATE record carrying the post-transaction allocator state
//     (page count, freelist) and superblock metadata blob — omitted by a
//     light transaction, one that logged notes and did nothing else: the
//     state is then still the last STATE record's, freelist included,
//   - one COMMIT record with a monotonically increasing sequence number,
//
// framed in one buffer, written over zeros with one write and made
// durable by a single fsync. A transaction is committed iff its COMMIT
// record is fully on disk; recovery adopts the last committed state,
// hands the committed notes to the owner in commit order, and discards
// everything after the last commit marker. The first transaction of a
// log generation always carries a STATE, so a log with committed
// transactions describes the committed state without the page-file
// header.
//
// The zero-filled region. The file runs on past its last record in zeros
// written ahead of the records: when a commit's records would run past
// them, that commit first writes the next extension of walExtend bytes
// (more if its records need it) from one shared array of zeros. Every
// other commit overwrites zeros in space the file already holds, so its
// fsync has no new file size for the file system to journal. Only an
// extension, a checkpoint and recovery's cut change the size.
//
// Wire format. The file starts with a 16-byte header (magic, version,
// block size) and then holds length-prefixed records:
//
//	u32 payloadLen | u8 type | payload | u32 crc32c
//
// The CRC (Castagnoli) covers the length, type and payload bytes, so a
// torn append — a partial record at the tail, or a record whose bytes
// never fully reached the platter — fails validation and is truncated
// away on replay. Zero bytes after the last valid record are the log's
// unwritten end, not a torn append (an all-zero frame never validates: the
// CRC of zeros is not zero); a torn append is the bytes from there to the
// last non-zero one. A record that validates but decodes to nonsense (an
// unknown type, a freelist with duplicates) is not a torn tail: it is
// reported as a wrapped ErrWALCorrupt and Open fails rather than guessing.
//
// Payloads (all integers little-endian):
//
//	STATE  u32 numPages | u32 metaLen | meta | u32 freeCount | u32 free...
//	COMMIT u64 seq
//	NOTE   opaque bytes
//
// The header's version is 2; a log of any other version (the NOTE-less
// version 1 of earlier builds included) fails Open with ErrWALCorrupt.
// Record type 1, a PAGE image, was written by earlier builds for an
// in-place update; a log that still holds one is from such an update that
// crashed before its checkpoint, and fails Open with ErrWALCorrupt:
// opening the file once with that earlier build replays and retires it.
//
// Checkpointing (FileBackend.Sync) rewrites the page-file header, fsyncs
// the page file and truncates the log back to its 16-byte header, zeros
// and all: at that point the page file alone describes the committed
// state. Notes are the exception: they are the only durable copy of the
// changes they describe, so a log that was recovered with notes in it is
// kept — cut at its last commit marker — until the owner has consumed them
// (see FileBackend.RecoveredNotes).

// castagnoli is the CRC32C table shared by WAL records and page trailers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWALCorrupt reports a write-ahead log whose committed region cannot
// be trusted: a semantically invalid record with a valid checksum, a
// foreign or mismatched log header. (A torn tail is NOT corruption — it
// is the expected crash artifact and is silently truncated on replay.)
var ErrWALCorrupt = errors.New("write-ahead log corrupt")

var walMagic = [6]byte{'P', 'R', 'W', 'A', 'L', 0}

const (
	walVersion    = 2  // the one version written and read
	walHeaderSize = 16 // magic[6] version:u16 blockSize:u32 reserved:u32

	walRecPage   byte = 1 // earlier builds only; refused (see above)
	walRecState  byte = 2
	walRecCommit byte = 3
	walRecNote   byte = 4

	// walRecOverhead is the framing around a payload: length, type, CRC.
	walRecOverhead = 4 + 1 + 4

	// maxWALPayload bounds a single record's declared payload so hostile
	// lengths cannot overflow offset arithmetic; real payloads are at
	// most a freelist (4 bytes/page).
	maxWALPayload = 1 << 30

	// walExtend is how far the zero-filled region grows at a time.
	walExtend = 64 << 10
)

// walZeros is what an extension of the log writes: shared, so extending
// allocates nothing. Never written to.
var walZeros [walExtend]byte

// encodeWALHeader returns the 16-byte log header for a page file with the
// given block size.
func encodeWALHeader(blockSize int) []byte {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], walVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(blockSize))
	return hdr
}

// checkWALHeader validates a log header against the page file it rides
// with. A nil error means the records after it may be scanned.
func checkWALHeader(hdr []byte, blockSize int) error {
	if [6]byte(hdr[0:6]) != walMagic {
		return fmt.Errorf("%w: bad magic %q", ErrWALCorrupt, hdr[0:6])
	}
	if v := binary.LittleEndian.Uint16(hdr[6:8]); v != walVersion {
		return fmt.Errorf("%w: version %d (this build reads version %d only)", ErrWALCorrupt, v, walVersion)
	}
	if bs := binary.LittleEndian.Uint32(hdr[8:12]); int(bs) != blockSize {
		return fmt.Errorf("%w: log written for %d-byte blocks, page file has %d", ErrWALCorrupt, bs, blockSize)
	}
	return nil
}

// appendWALRecord frames payload as one record (length, type, payload,
// CRC32C) and appends it to dst.
func appendWALRecord(dst []byte, typ byte, payload []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, walRecOverhead+len(payload))
	}
	start := len(dst)
	var lenbuf [4]byte
	binary.LittleEndian.PutUint32(lenbuf[:], uint32(len(payload)))
	dst = append(dst, lenbuf[:]...)
	dst = append(dst, typ)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	binary.LittleEndian.PutUint32(lenbuf[:], crc)
	return append(dst, lenbuf[:]...)
}

// encodeWALState frames the post-transaction allocator/metadata record.
func encodeWALState(numPages int, free []PageID, meta []byte) []byte {
	payload := make([]byte, 0, 12+len(meta)+4*len(free))
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], uint32(numPages))
	payload = append(payload, w[:]...)
	binary.LittleEndian.PutUint32(w[:], uint32(len(meta)))
	payload = append(payload, w[:]...)
	payload = append(payload, meta...)
	binary.LittleEndian.PutUint32(w[:], uint32(len(free)))
	payload = append(payload, w[:]...)
	for _, id := range free {
		binary.LittleEndian.PutUint32(w[:], uint32(id))
		payload = append(payload, w[:]...)
	}
	return appendWALRecord(nil, walRecState, payload)
}

// encodeWALCommit frames a commit marker.
func encodeWALCommit(seq uint64) []byte {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], seq)
	return appendWALRecord(nil, walRecCommit, payload[:])
}

// walState is one decoded STATE record.
type walState struct {
	numPages int
	free     []PageID
	meta     []byte
}

// walTx is one committed transaction recovered from the log. state is nil
// for a light transaction (notes only): the state is the previous one's.
type walTx struct {
	seq   uint64
	notes [][]byte // alias the scanned buffer
	state *walState
}

// records appends the transaction to dst, framed the way Commit writes it
// in one buffer: notes, the state unless the transaction is light, the
// commit marker.
func (tx *walTx) records(dst []byte) []byte {
	for _, note := range tx.notes {
		dst = appendWALRecord(dst, walRecNote, note)
	}
	if st := tx.state; st != nil {
		dst = append(dst, encodeWALState(st.numPages, st.free, st.meta)...)
	}
	return append(dst, encodeWALCommit(tx.seq)...)
}

// RecoveryInfo reports what crash recovery found and did when a page
// file was opened with a non-empty write-ahead log. A nil *RecoveryInfo
// means the file was clean (no log records to consider).
type RecoveryInfo struct {
	// ReplayedTxs is the number of committed transactions found in the log;
	// the state the last of them records is the one recovery adopted.
	ReplayedTxs int
	// ReappliedNotes is the number of logical notes — mutations committed
	// as a log record only, after the last full save of the owner's state —
	// that the owner re-applied on top of the recovered state. The storage
	// layer hands notes over uninterpreted (FileBackend.RecoveredNotes);
	// OpenDynamic fills this in.
	ReappliedNotes int
	// DuplicateCommits counts commit markers whose sequence number had
	// already been applied (e.g. a record duplicated by a retried append);
	// their transactions are skipped, replay stays idempotent.
	DuplicateCommits int
	// DiscardedRecords is the number of intact records after the last
	// commit marker — an uncommitted transaction the crash interrupted.
	DiscardedRecords int
	// TornTailBytes is the number of trailing bytes dropped because they
	// failed length or checksum validation (a torn append), counted up to
	// the last non-zero byte: the zeros after it are the log's unwritten end.
	TornTailBytes int64
	// WALBytes is the written part of the log body: up to the end of its
	// last record, or of its torn tail.
	WALBytes int64
}

// dirty reports whether recovery found anything worth reporting.
func (ri *RecoveryInfo) dirty() bool {
	return ri.ReplayedTxs > 0 || ri.DuplicateCommits > 0 ||
		ri.DiscardedRecords > 0 || ri.TornTailBytes > 0
}

// String renders the report in prose, for logs and prtool.
func (ri *RecoveryInfo) String() string {
	return fmt.Sprintf("replayed %d tx, re-applied %d notes, discarded %d uncommitted records, %d duplicate commits, %d torn tail bytes",
		ri.ReplayedTxs, ri.ReappliedNotes, ri.DiscardedRecords, ri.DuplicateCommits, ri.TornTailBytes)
}

// walScanResult is everything scanWAL learned from a log body.
type walScanResult struct {
	txs     []walTx
	lastSeq uint64
	// committedEnd is the offset, within the body, just past the last
	// commit marker: where a log that is kept is cut.
	committedEnd int
	info         RecoveryInfo
}

// notes returns the notes of every committed transaction, in commit order.
func (res *walScanResult) notes() [][]byte {
	var out [][]byte
	for _, tx := range res.txs {
		out = append(out, tx.notes...)
	}
	return out
}

// nextWALRecord validates the frame at the head of b. ok=false means the
// bytes are a torn tail (short frame, implausible length, bad CRC): the
// caller must discard from here on.
func nextWALRecord(b []byte) (typ byte, payload []byte, size int, ok bool) {
	if len(b) < walRecOverhead {
		return 0, nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen > maxWALPayload {
		return 0, nil, 0, false
	}
	size = walRecOverhead + plen
	if size > len(b) {
		return 0, nil, 0, false
	}
	if crc32.Checksum(b[:5+plen], castagnoli) != binary.LittleEndian.Uint32(b[5+plen:]) {
		return 0, nil, 0, false
	}
	return b[4], b[5 : 5+plen], size, true
}

// scanWAL decodes a log body (the bytes after the 16-byte header) into
// its committed transactions. It is a pure function over the bytes — the
// fuzz target for the whole decode path — and must never panic or
// allocate beyond O(len(data)).
//
// A torn tail (short or checksum-failing trailing bytes) and an
// uncommitted trailing transaction are normal crash artifacts, reported
// through the RecoveryInfo; zeros after the last record are neither. A
// record that passes its checksum but decodes to nonsense is real
// corruption: scanWAL returns a wrapped ErrWALCorrupt and no transactions
// should be trusted; WALBytes is still set, TornTailBytes is 0.
func scanWAL(data []byte, blockSize int) (res walScanResult, err error) {
	var (
		notes    [][]byte
		state    *walState
		pending  int
		anyState bool // a committed transaction carried a STATE
	)
	reset := func() { notes, state, pending = nil, nil, 0 }
	off := 0
	defer func() {
		// The written part runs from the last record read to the last
		// non-zero byte: a torn tail, unless the scan stopped at corruption.
		tail := int64(len(bytes.TrimRight(data[off:], "\x00")))
		res.info.WALBytes = int64(off) + tail
		if err == nil {
			res.info.TornTailBytes = tail
		}
	}()
	for off < len(data) {
		typ, payload, size, ok := nextWALRecord(data[off:])
		if !ok {
			break
		}
		switch typ {
		case walRecPage:
			return res, fmt.Errorf("%w: a page image at log offset %d: an in-place update by an earlier build crashed before its checkpoint; open the file once with that build to replay it",
				ErrWALCorrupt, walHeaderSize+off)
		case walRecState:
			st, err := decodeWALState(payload, blockSize)
			if err != nil {
				return res, err
			}
			if state != nil {
				return res, fmt.Errorf("%w: two state records in one transaction", ErrWALCorrupt)
			}
			state = st
			pending++
		case walRecNote:
			notes = append(notes, payload)
			pending++
		case walRecCommit:
			if len(payload) != 8 {
				return res, fmt.Errorf("%w: commit record of %d bytes", ErrWALCorrupt, len(payload))
			}
			seq := binary.LittleEndian.Uint64(payload)
			if seq <= res.lastSeq {
				// A replayed or duplicated commit: its transaction has
				// already been applied, skip it idempotently.
				res.info.DuplicateCommits++
				res.committedEnd = off + size
				reset()
				break
			}
			if state == nil && (len(notes) == 0 || !anyState) {
				// Only a light transaction — notes and nothing else, after a
				// transaction that said what the state is — may omit it.
				return res, fmt.Errorf("%w: commit %d without a state record (%d notes)",
					ErrWALCorrupt, seq, len(notes))
			}
			anyState = anyState || state != nil
			res.txs = append(res.txs, walTx{seq: seq, notes: notes, state: state})
			res.lastSeq = seq
			res.committedEnd = off + size
			reset()
		default:
			return res, fmt.Errorf("%w: unknown record type %d", ErrWALCorrupt, typ)
		}
		off += size
	}
	res.info.DiscardedRecords = pending
	return res, nil
}

// decodeWALState decodes and validates a STATE payload: the freelist must
// fit the declared page count with no duplicates (the same invariant
// openValidated enforces on the page-file trailer) and the metadata blob
// must fit a superblock.
func decodeWALState(payload []byte, blockSize int) (*walState, error) {
	if len(payload) < 12 {
		return nil, fmt.Errorf("%w: state record of %d bytes", ErrWALCorrupt, len(payload))
	}
	numPages := int(binary.LittleEndian.Uint32(payload[0:4]))
	metaLen := int(binary.LittleEndian.Uint32(payload[4:8]))
	if metaLen > MetaCapacity(blockSize) || metaLen > len(payload)-12 {
		return nil, fmt.Errorf("%w: state metadata of %d bytes", ErrWALCorrupt, metaLen)
	}
	meta := payload[8 : 8+metaLen]
	rest := payload[8+metaLen:]
	freeCount := int(binary.LittleEndian.Uint32(rest[0:4]))
	if freeCount > numPages || len(rest) != 4+4*freeCount {
		return nil, fmt.Errorf("%w: state freelist of %d entries (payload %d, pages %d)",
			ErrWALCorrupt, freeCount, len(payload), numPages)
	}
	free := make([]PageID, freeCount)
	seen := make(map[PageID]struct{}, freeCount)
	for i := range free {
		v := PageID(binary.LittleEndian.Uint32(rest[4+4*i:]))
		if int(v) >= numPages {
			return nil, fmt.Errorf("%w: state freelist entry %d out of range (%d pages)", ErrWALCorrupt, v, numPages)
		}
		if _, dup := seen[v]; dup {
			return nil, fmt.Errorf("%w: state freelist entry %d duplicated", ErrWALCorrupt, v)
		}
		seen[v] = struct{}{}
		free[i] = v
	}
	return &walState{numPages: numPages, free: free, meta: meta}, nil
}
