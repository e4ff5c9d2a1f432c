package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// FileBackend stores pages in a real O_RDWR page file, so an index larger
// than RAM can be built once and served across process runs.
//
// Its one invariant: a page reachable from the committed state is never
// written. Every owner mutates copy-on-write — it writes pages it allocated,
// frees the ones they replace and publishes the switch with a commit — so a
// write always goes straight to the page file and the log never needs a
// page's image.
//
// File layout (version 2; all page reads and writes are slot-aligned):
//
//	bytes 0..blockSize      header: magic[6] version:u16 blockSize:u32
//	                                numPages:u32 freeCount:u32 metaLen:u32
//	                                meta[metaLen]   (superblock blob)
//	page slots              page i at offset blockSize + i*slotSize, where
//	                        slotSize = blockSize + 8: the block image
//	                        followed by an 8-byte trailer
//	                        (u32 CRC32C over data[:dataLen], u32 dataLen)
//	trailer                 freeCount little-endian u32 freelist entries
//
// The per-page trailer makes latent sector corruption fail loudly: a read
// verifies the checksum of every fetched block and panics with an error
// wrapping ErrChecksum on a mismatch, and Fsck scans every in-use page
// without panicking. Open rejects a file of any other version (the
// trailerless version 1 of earlier builds included) with ErrBadVersion.
//
// # Read paths
//
// ReadNoCopy, the counted demand read, has two, and the platform picks. On
// Linux the backend maps its own page file read-only and shared, and lends
// views of it: a page read copies, allocates and syscalls nothing, and its
// checksum is verified once per content — on the first view after every
// write of the page — not once per read. The mapping only grows and is
// released at Close or Abandon, so a view stays valid for the handle's
// lifetime, across Sync and any growth of the file (see filemap_linux.go).
// Everywhere else, and for the pages the mapping cannot serve (never
// written, or a map that failed), the path is Read's verified pread into a
// private copy.
//
// # Durability
//
// A FileBackend carries a sidecar write-ahead log at path+".wal" (see
// wal.go for the record format). Mutations between Begin and Commit are
// atomic and, after Commit returns, durable:
//
//   - writes go straight to the page file: by the invariant they land on
//     fresh or committed-free pages, which no committed state reads;
//   - pages freed by the transaction stay out of the allocator until it
//     commits, so their committed bytes survive a crash or a failed
//     commit;
//   - Note logs opaque bytes of the owner with the transaction — a logical
//     record of a change that touched no page;
//   - Commit flushes the page file, writes the notes, the post-state
//     (allocator + metadata) and a commit marker with one write over the
//     zeros past the log's last record, and fsyncs the log once.
//
// A light transaction — one that logged notes and did nothing else:
// nothing freed, the metadata left alone — commits without
// the post-state, which is still the last STATE record's: one small
// append and one log fsync, nothing proportional to the freelist. The
// first transaction of a log generation is never light.
//
// The log keeps a region of zeros past its last record (see wal.go), and
// a commit whose records would run past it first writes the next
// extension — one more persistence step, no extra fsync — so every other
// commit lands in space the file already holds, and its fsync has no new
// file size to journal.
//
// The fsync rule of the commit path: a STATE-bearing commit makes pages
// reachable, so it first flushes the page file if any page was written
// since the page file's last fsync. A light commit references no page
// and flushes only the log. FsyncStats counts both kinds.
//
// Sync checkpoints: it rewrites the header and freelist trailer, cuts the
// file off after its last page in use — the allocator recycles the lowest
// free page first, so free pages gather at the end, and the run of them
// that ends the file leaves the page count and the free list (see Sync) —
// fsyncs the page file and truncates the log, making the page file alone
// the committed state. Open adopts the last state the log's committed
// transactions record (a crash between Commit and Sync), discards
// uncommitted or torn tails and the zeros after them, and then
// checkpoints; what it did is reported through RecoveryInfo. A log with
// committed transactions supersedes the header entirely, so a crash
// anywhere inside a checkpoint recovers cleanly; and because direct
// writes can extend the file over the checkpointed freelist trailer, the
// first transaction after a checkpoint re-journals that state into the
// log before any page write (one extra fsync per log generation).
//
// Notes change what Open does with the log. They are the only durable
// copy of the changes they describe, so when the committed transactions
// hold any, Open adopts the state as usual but does not
// checkpoint: it cuts the log at its last commit marker and keeps it,
// hands the notes to the owner (RecoveredNotes), and refuses to retire
// the log — Sync and Close flush the page file and leave header and log
// alone — until the owner declares them part of a committed state
// (ConsumeNotes). A handle that never looks at the notes therefore cannot
// destroy them, and replaying the same log twice is idempotent.
//
// Writes outside a transaction are made durable by Sync or by the next
// STATE-bearing commit (see the fsync rule).
//
// One rule covers every failure: the first page pwrite, log append or
// extension, truncate or fsync that errs fails the handle with its error,
// as a Rollback (it undoes nothing) and an injected crash do. A failed
// handle still reads but persists nothing: writes are skipped, Begin
// opens nothing, Commit and Sync return the error, and
// Close releases both files like Abandon and returns nil. The next Open
// recovers the last commit from the log.
//
// # Locks
//
// Like Disk, a FileBackend is safe for concurrent use. mu guards the
// allocator, the freelist, the metadata blob and the open transaction;
// page reads and writes hold it shared around pread/pwrite, which are
// safe from many goroutines; a page write that formats slots also takes
// scratchMu, so those go out one at a time. Individual pages keep the single-writer /
// no-use-after-Free contract; Begin, Commit and Rollback delimit one
// transaction at a time.
//
// Commit does not hold mu while it waits for the disk: a reader's page
// miss must not queue behind a log fsync.
// What it holds instead is the commit gate (commitMu, taken before mu):
// Alloc and Free (and Sync and Close, which must find no commit half done)
// pass it shared, Commit holds it exclusively from the moment it reads the
// freelist until the transaction is gone, so the freelist cannot change
// under the wait — a page allocated meanwhile would be missing from the
// post-commit freelist's view and handed out twice. Read, Write, Meta and
// the counters never touch the gate.
//
// Open-time corruption (short header, bad magic or version, mismatched
// block size, truncated page data, out-of-range or duplicated freelist
// entries, an untrustworthy log) is reported as a wrapped, inspectable
// error — see ErrBadMagic, ErrBadVersion, ErrBlockSizeMismatch,
// ErrTruncated and ErrWALCorrupt; a failed write fails the handle (see
// "# Durability"). Only reads panic: a short read or a checksum mismatch on
// a validated file (e.g. one shrinking under a running process), as the
// Disk's out-of-range pages do, with an error wrapping ErrChecksum when
// the cause is a failed page verification.
type FileBackend struct {
	f         *os.File
	wal       *os.File
	path      string
	blockSize int
	slotSize  int // blockSize + pageTrailerSize

	// Crash-injection instrumentation: persistStep() is called before
	// every persistence side effect (page pwrite, log extension, WAL
	// append, fsync, header rewrite). See SetCrashAfterSteps.
	steps      atomic.Int64
	crashAfter atomic.Int64

	// failure is the error that failed the handle (see "# Durability").
	failure atomic.Pointer[error]

	// reads and writes count the demand I/O of the public Read,
	// ReadNoCopy and Write (see Stats), nothing this handle does on its
	// own behalf.
	reads  atomic.Uint64
	writes atomic.Uint64

	// pagesDirty records a direct page write (in or out of a transaction)
	// since the page file's last fsync; the next STATE-bearing
	// commit or checkpoint flushes it. fileSyncs and walSyncs count fsyncs.
	pagesDirty atomic.Bool
	fileSyncs  atomic.Int64
	walSyncs   atomic.Int64

	// walSize is where the log's records end and the next append goes. It
	// and the append counters are atomics because Commit appends under the
	// commit gate, not under mu, while WALStats reads.
	walSize    atomic.Int64
	walRecords atomic.Int64
	walBytes   atomic.Int64

	// walEnd is the log file's size: walSize and the zeros written ahead
	// of it (see wal.go). It belongs to whoever owns the log's tail (see
	// appendWAL).
	walEnd int64

	// extent is the page file's size as this handle's writes and
	// checkpoints made it. Page slots that end within it have bytes on disk
	// and may be viewed through the mapping; a file found shorter has been
	// truncated under the handle.
	extent atomic.Int64
	pm     pageMap // the file's mapping of itself; empty on platforms without one

	// scratch is where writeDirect formats the slots of one Write. It holds
	// them for that call only; scratchMu, taken after mu, lends it to one
	// call at a time.
	scratchMu sync.Mutex
	scratch   []byte

	// commitMu is the commit gate (see "# Locks"); it is taken before mu.
	commitMu sync.RWMutex

	mu       sync.RWMutex
	numPages int
	free     freeHeap
	meta     []byte
	zero     []byte // shared all-zero block for Alloc
	closed   bool
	walSeq   uint64
	recovery *RecoveryInfo

	// recNotes are the notes recovery found in committed transactions, in
	// commit order; while notesPending the log is their only durable copy
	// and no checkpoint may retire it (see ConsumeNotes).
	recNotes     [][]byte
	notesPending bool

	// ckpt snapshots the state the last completed checkpoint wrote into
	// the header, and walHasState records whether the current log
	// generation holds at least one durable committed state record. The
	// first transaction after a checkpoint re-journals ckpt before any
	// direct write can extend the file over the on-disk freelist trailer
	// (see Begin).
	ckpt        walState
	walHasState bool

	tx *fileTx // the open transaction; guarded by mu

	epochPins // the snapshot hooks: epoch-pinned reclamation of freed pages
}

// fileTx is one open transaction: the pages it freed, the owner's notes
// and whether it set the metadata.
type fileTx struct {
	metaSet bool
	freed   freeHeap // pages freed during the transaction
	notes   []byte   // NOTE records, framed as Note was called
	nNotes  int
}

// light reports whether the transaction did nothing but log notes, so its
// commit can leave the STATE record out.
func (tx *fileTx) light() bool {
	return len(tx.notes) > 0 && len(tx.freed) == 0 && !tx.metaSet
}

// Page-file corruption sentinels, matchable with errors.Is through the
// wrapped errors OpenFile returns.
var (
	// ErrBadMagic reports a file that is not a prtree page file.
	ErrBadMagic = errors.New("bad page-file magic")
	// ErrBadVersion reports a page file written by an unknown format version.
	ErrBadVersion = errors.New("unsupported page-file version")
	// ErrBlockSizeMismatch reports opening a page file with a different
	// block size than it was created with.
	ErrBlockSizeMismatch = errors.New("page-file block size mismatch")
	// ErrTruncated reports a page file shorter than its header's recorded
	// geometry requires.
	ErrTruncated = errors.New("page file truncated")
	// ErrCorrupt reports a page file whose header or freelist trailer
	// contradicts itself: a block size no page file has, a metadata blob
	// or freelist larger than the header allows, a freelist entry out of
	// range or listed twice.
	ErrCorrupt = errors.New("page file corrupt")
	// ErrChecksum reports a page whose stored CRC32C trailer does not
	// match its contents — latent corruption caught at read time. It is
	// returned (wrapped) by Fsck and CheckPage and carried by the panic a
	// read raises on a poisoned block.
	ErrChecksum = errors.New("page checksum mismatch")
)

var fileMagic = [6]byte{'P', 'R', 'P', 'A', 'G', 'E'}

const (
	fileVersion    = 2                     // the one version written and read
	fileHeaderSize = 6 + 2 + 4 + 4 + 4 + 4 // magic version blockSize numPages freeCount metaLen
	maxBlockSize   = 1 << 24

	// pageTrailerSize is the per-slot checksum trailer: u32 CRC32C over
	// data[:dataLen], u32 dataLen.
	pageTrailerSize = 8
)

// MetaCapacity returns the largest metadata blob (see SetMeta) a page file
// of the given block size holds: the header block less its fixed fields.
// Commit and Sync refuse a larger one.
func MetaCapacity(blockSize int) int { return blockSize - fileHeaderSize }

// CreateFile creates (or truncates) a page file at path with the given
// block size and returns an empty backend on it. The header and an empty
// write-ahead log (at path+".wal") are written immediately, and their
// directory synced once both exist, so even an empty index file is
// openable after a crash.
func CreateFile(path string, blockSize int) (*FileBackend, error) {
	if blockSize < fileHeaderSize || blockSize > maxBlockSize {
		return nil, fmt.Errorf("storage: create %s: block size %d outside [%d, %d]",
			path, blockSize, fileHeaderSize, maxBlockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create page file: %w", err)
	}
	fb := &FileBackend{
		f:         f,
		path:      path,
		blockSize: blockSize,
		slotSize:  blockSize + pageTrailerSize,
		zero:      make([]byte, blockSize),
	}
	cleanup := func() {
		f.Close()
		os.Remove(path)
		if fb.wal != nil {
			fb.wal.Close()
			os.Remove(walPath(path))
		}
	}
	wf, err := os.OpenFile(walPath(path), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		cleanup()
		return nil, fmt.Errorf("storage: create write-ahead log: %w", err)
	}
	fb.wal = wf
	if _, err := wf.WriteAt(encodeWALHeader(blockSize), 0); err != nil {
		cleanup()
		return nil, fmt.Errorf("storage: writing log header: %w", err)
	}
	if err := wf.Sync(); err != nil {
		cleanup()
		return nil, fmt.Errorf("storage: fsync write-ahead log: %w", err)
	}
	fb.setWALEnd(walHeaderSize)
	if err := fb.Sync(); err != nil {
		cleanup()
		return nil, err
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		cleanup()
		return nil, err
	}
	return fb, nil
}

// dirSyncs counts SyncDir calls, for tests.
var dirSyncs atomic.Int64

// DirSyncs returns how many times SyncDir has run in this process.
func DirSyncs() int64 { return dirSyncs.Load() }

// SyncDir fsyncs the directory dir, which makes the files created, renamed
// or removed in it durable: an fsync of a file covers its contents, not
// its name. Windows cannot sync a directory; there it does nothing.
func SyncDir(dir string) error {
	dirSyncs.Add(1)
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: sync directory: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: sync directory %s: %w", dir, err)
	}
	return nil
}

// walPath returns the sidecar log path for a page file.
func walPath(pagePath string) string { return pagePath + ".wal" }

// RemoveFiles deletes the page file at path together with its write-ahead
// log. Files that do not exist are not an error.
func RemoveFiles(path string) error {
	var errs []error
	for _, p := range []string{path, walPath(path)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// OpenFile opens an existing page file, validating its header and
// geometry and replaying the write-ahead log if the file was not cleanly
// checkpointed. expectBlockSize 0 accepts whatever block size the file
// was created with; a non-zero value must match or Open fails with a
// wrapped ErrBlockSizeMismatch. What recovery found is available from
// RecoveryInfo afterwards.
//
// When the log holds committed transactions, its last state record — not
// the header — is the committed truth: a crash can interrupt a checkpoint
// after the header was rewritten but before the freelist trailer and
// truncate caught up, so the header's geometry is only validated when the
// log is empty.
func OpenFile(path string, expectBlockSize int) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	fb, err := openAndRecover(f, path, expectBlockSize)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return fb, nil
}

// fileHeader is the fixed header's decoded fields, checked for internal
// consistency but not yet against the file's actual size.
type fileHeader struct {
	blockSize int
	numPages  int
	freeCount int
	metaLen   int
}

// readFileHeader reads and validates everything about the header that
// does not depend on trusting the rest of the file.
func readFileHeader(f *os.File, expectBlockSize int) (fileHeader, error) {
	var hdr fileHeader
	var raw [fileHeaderSize]byte
	if _, err := f.ReadAt(raw[:], 0); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = io.ErrUnexpectedEOF
		}
		return hdr, fmt.Errorf("%w: short header read: %w", ErrTruncated, err)
	}
	if [6]byte(raw[0:6]) != fileMagic {
		return hdr, fmt.Errorf("%w: %q", ErrBadMagic, raw[0:6])
	}
	if v := binary.LittleEndian.Uint16(raw[6:8]); v != fileVersion {
		return hdr, fmt.Errorf("%w: %d (this build reads version %d only)", ErrBadVersion, v, fileVersion)
	}
	hdr.blockSize = int(binary.LittleEndian.Uint32(raw[8:12]))
	if hdr.blockSize < fileHeaderSize || hdr.blockSize > maxBlockSize {
		return hdr, fmt.Errorf("%w: implausible block size %d", ErrCorrupt, hdr.blockSize)
	}
	if expectBlockSize != 0 && expectBlockSize != hdr.blockSize {
		return hdr, fmt.Errorf("%w: file has %d-byte blocks, caller wants %d",
			ErrBlockSizeMismatch, hdr.blockSize, expectBlockSize)
	}
	hdr.numPages = int(binary.LittleEndian.Uint32(raw[12:16]))
	hdr.freeCount = int(binary.LittleEndian.Uint32(raw[16:20]))
	hdr.metaLen = int(binary.LittleEndian.Uint32(raw[20:24]))
	if hdr.metaLen > MetaCapacity(hdr.blockSize) {
		return hdr, fmt.Errorf("%w: metadata blob of %d bytes overflows the %d-byte header block", ErrCorrupt, hdr.metaLen, hdr.blockSize)
	}
	if hdr.freeCount > hdr.numPages {
		return hdr, fmt.Errorf("%w: freelist of %d entries exceeds %d pages", ErrCorrupt, hdr.freeCount, hdr.numPages)
	}
	return hdr, nil
}

// openAndRecover validates the header, decides whether the header or the
// write-ahead log describes the committed state, loads that state, and
// checkpoints. It runs before the backend is handed to any caller, so it
// works on the struct without locks.
func openAndRecover(f *os.File, path string, expectBlockSize int) (*FileBackend, error) {
	hdr, err := readFileHeader(f, expectBlockSize)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < int64(hdr.blockSize) {
		// Every checkpoint, the first at creation, leaves the header's
		// whole block on disk; nothing sized by the header is made before
		// the file is known to hold it.
		return nil, fmt.Errorf("%w: %d bytes on disk, the header block is %d bytes", ErrTruncated, st.Size(), hdr.blockSize)
	}
	fb := &FileBackend{
		f:         f,
		path:      path,
		blockSize: hdr.blockSize,
		slotSize:  hdr.blockSize + pageTrailerSize,
		zero:      make([]byte, hdr.blockSize),
	}
	fail := func(err error) (*FileBackend, error) {
		if fb.wal != nil {
			fb.wal.Close()
		}
		return nil, err
	}
	fb.extent.Store(st.Size())
	var res walScanResult
	wf, err := os.OpenFile(walPath(path), os.O_RDWR, 0o644)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// A pre-WAL index: the sidecar is created (empty) after the state
		// is validated, so a failed open leaves no side effects.
	case err != nil:
		return nil, fmt.Errorf("opening write-ahead log: %w", err)
	default:
		fb.wal = wf
		st, err := wf.Stat()
		if err != nil {
			return fail(fmt.Errorf("write-ahead log: %w", err))
		}
		if st.Size() >= walHeaderSize {
			data := make([]byte, st.Size())
			if _, err := io.ReadFull(io.NewSectionReader(wf, 0, st.Size()), data); err != nil {
				return fail(fmt.Errorf("reading write-ahead log: %w", err))
			}
			if err := checkWALHeader(data, fb.blockSize); err != nil {
				return fail(err)
			}
			res, err = scanWAL(data[walHeaderSize:], fb.blockSize)
			if err != nil {
				return fail(err)
			}
			// Until the cut or the checkpoint below, whatever the file holds
			// counts as written.
			fb.setWALEnd(st.Size())
		}
	}
	if len(res.txs) > 0 {
		// The log is authoritative: adopt the last committed state, ignoring
		// the header's possibly mid-checkpoint geometry and trailer. The
		// pages that state reaches were flushed before its commit marker.
		fb.walSeq = res.lastSeq
		for _, tx := range res.txs {
			if tx.state != nil {
				fb.numPages = tx.state.numPages
				fb.free = append(fb.free[:0], tx.state.free...)
				fb.meta = append(fb.meta[:0], tx.state.meta...)
			}
			res.info.ReplayedTxs++
		}
		if err := fb.checkAdoptedState(); err != nil {
			return fail(err)
		}
		fb.free.init()
		fb.walHasState = true
		// The notes alias the scanned buffer, which lives as long as they do.
		fb.recNotes = res.notes()
		fb.notesPending = len(fb.recNotes) > 0
	} else if err := fb.loadCheckpoint(hdr); err != nil {
		return fail(err)
	}
	if fb.wal == nil {
		wf, err := os.OpenFile(walPath(path), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fail(fmt.Errorf("opening write-ahead log: %w", err))
		}
		fb.wal = wf
	}
	if fb.walSize.Load() < walHeaderSize {
		// Missing sidecar or a header torn during its creation: no commit
		// can exist yet, start a fresh log.
		if err := fb.resetWALFile(); err != nil {
			return fail(err)
		}
	}
	if res.info.dirty() {
		info := res.info
		fb.recovery = &info
	}
	if fb.notesPending {
		// The log is the only durable copy of its notes: keep it, cut at the
		// last commit marker so later commits append to a clean tail, and
		// leave the checkpoint to whoever consumes them.
		if err := fb.cutWAL(walHeaderSize + int64(res.committedEnd)); err != nil {
			return fail(err)
		}
		return fb, nil
	}
	// Checkpoint: the recovered state becomes the page file's durable
	// identity and the log is retired, exactly as a clean Sync would.
	if err := fb.syncLocked(); err != nil {
		return fail(err)
	}
	return fb, nil
}

// checkAdoptedState holds the state adopted from the log to the commit
// path's flush rule: every page a committed state reaches was flushed
// before its commit marker, so a page at or past the page file's last
// whole slot can only be on that state's free list. A state that claims
// more pages than that fails Open with ErrWALCorrupt before anything is
// sized by it or written.
func (fb *FileBackend) checkAdoptedState() error {
	slots := int((fb.extent.Load() - int64(fb.blockSize)) / int64(fb.slotSize))
	if fb.numPages <= slots {
		return nil
	}
	beyond := 0
	for _, id := range fb.free {
		if int(id) >= slots {
			beyond++
		}
	}
	if beyond != fb.numPages-slots {
		return fmt.Errorf("%w: logged state of %d pages reaches %d past the page file's %d slots",
			ErrWALCorrupt, fb.numPages, fb.numPages-slots-beyond, slots)
	}
	return nil
}

// loadCheckpoint reads the committed state (geometry, freelist, metadata)
// the header describes, with full validation against the file's size.
// Only sound when the log holds no committed transactions — after a
// mid-checkpoint crash the header can be ahead of the trailer, and the
// log's last state wins instead.
func (fb *FileBackend) loadCheckpoint(hdr fileHeader) error {
	want := int64(hdr.blockSize) + int64(hdr.numPages)*int64(fb.slotSize) + 4*int64(hdr.freeCount)
	if size := fb.extent.Load(); size < want {
		return fmt.Errorf("%w: %d bytes on disk, header records %d pages of %d bytes (want %d bytes)",
			ErrTruncated, size, hdr.numPages, fb.slotSize, want)
	}
	meta := make([]byte, hdr.metaLen)
	if _, err := fb.f.ReadAt(meta, fileHeaderSize); err != nil {
		return fmt.Errorf("reading metadata blob: %w", err)
	}
	free := make(freeHeap, hdr.freeCount)
	if hdr.freeCount > 0 {
		raw := make([]byte, 4*hdr.freeCount)
		if _, err := fb.f.ReadAt(raw, int64(hdr.blockSize)+int64(hdr.numPages)*int64(fb.slotSize)); err != nil {
			return fmt.Errorf("reading freelist: %w", err)
		}
		seen := make(map[PageID]struct{}, hdr.freeCount)
		for i := range free {
			v := binary.LittleEndian.Uint32(raw[4*i:])
			if int(v) >= hdr.numPages {
				return fmt.Errorf("%w: freelist entry %d out of range (%d pages)", ErrCorrupt, v, hdr.numPages)
			}
			if _, dup := seen[PageID(v)]; dup {
				// A duplicated entry would hand the same live block out
				// of Alloc twice; refuse rather than corrupt silently.
				return fmt.Errorf("%w: freelist entry %d duplicated", ErrCorrupt, v)
			}
			seen[PageID(v)] = struct{}{}
			free[i] = PageID(v)
		}
	}
	fb.numPages = hdr.numPages
	fb.free = free
	fb.free.init() // the trailer holds the list in whatever order a checkpoint found it
	fb.meta = meta
	return nil
}

// resetWALFile writes a fresh header over a log shorter than one.
func (fb *FileBackend) resetWALFile() error {
	if _, err := fb.wal.WriteAt(encodeWALHeader(fb.blockSize), 0); err != nil {
		return fmt.Errorf("writing log header: %w", err)
	}
	if err := fb.syncWAL(); err != nil {
		return fmt.Errorf("fsync write-ahead log: %w", err)
	}
	fb.setWALEnd(walHeaderSize)
	return nil
}

// cutWAL truncates the log to size bytes — the end of its last commit
// marker — dropping a torn or uncommitted tail, and the zeros after it,
// for good.
func (fb *FileBackend) cutWAL(size int64) error {
	if size < fb.walEnd {
		if err := fb.wal.Truncate(size); err != nil {
			return fmt.Errorf("truncating write-ahead log: %w", err)
		}
		if err := fb.syncWAL(); err != nil {
			return fmt.Errorf("fsync write-ahead log: %w", err)
		}
	}
	fb.setWALEnd(size)
	return nil
}

// setWALEnd records a log file that ends at size, with no zeros after its
// last record: the next commit writes an extension.
func (fb *FileBackend) setWALEnd(size int64) {
	fb.walSize.Store(size)
	fb.walEnd = size
}

// RecoveredNotes returns the notes (see Note) of the committed
// transactions recovery found in the log, in commit order, or nil when
// there were none. The backend does not interpret them; it only keeps the
// log that holds them until ConsumeNotes. The slices must not be modified.
func (fb *FileBackend) RecoveredNotes() [][]byte {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	return fb.recNotes
}

// ConsumeNotes declares the recovered notes dealt with: every change they
// describe is part of the committed state (the owner committed a
// transaction that holds it, or they described nothing new). From here on
// Sync and Close checkpoint and retire the log as usual.
func (fb *FileBackend) ConsumeNotes() {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.recNotes, fb.notesPending = nil, false
}

// RecoveryInfo reports what crash recovery did when this backend was
// opened, or nil when the file was clean. The report is stable for the
// backend's lifetime.
func (fb *FileBackend) RecoveryInfo() *RecoveryInfo { return fb.recovery }

// WALStats describes the write-ahead log's cumulative activity.
type WALStats struct {
	// Records and Bytes count log appends since the backend was opened.
	Records int64
	Bytes   int64
	// Size is where the log's records end (header included); the file runs
	// on in the zeros written ahead of them. Sync truncates it back to the
	// 16-byte header.
	Size int64
}

// WALStats returns the log counters — the direct measure of WAL overhead
// on a write path.
func (fb *FileBackend) WALStats() WALStats {
	return WALStats{Records: fb.walRecords.Load(), Bytes: fb.walBytes.Load(), Size: fb.walSize.Load()}
}

// FsyncStats counts the fsyncs a backend has issued since it was opened,
// by file: what a commit costs beyond its bytes.
type FsyncStats struct {
	PageFile int64
	Log      int64
}

// FsyncStats returns the fsync counters. A light commit adds one to Log
// and nothing to PageFile.
func (fb *FileBackend) FsyncStats() FsyncStats {
	return FsyncStats{PageFile: fb.fileSyncs.Load(), Log: fb.walSyncs.Load()}
}

// syncPageFile flushes the page file. The flag is cleared first, so a
// direct write racing with the flush leaves it set for the next one.
func (fb *FileBackend) syncPageFile() error {
	fb.pagesDirty.Store(false)
	fb.fileSyncs.Add(1)
	return fb.f.Sync()
}

// syncWAL flushes the log.
func (fb *FileBackend) syncWAL() error {
	fb.walSyncs.Add(1)
	return fb.wal.Sync()
}

// SetCrashAfterSteps arranges for the backend to panic with an error
// wrapping ErrInjectedFault immediately BEFORE its n-th persistence side
// effect (page pwrite, log extension, log append, fsync, header rewrite),
// counted from the backend's creation, failing the handle — modeling a
// process killed at that exact point whose file descriptors go away. n <= 0
// disables injection. Together with PersistSteps it lets a test kill a
// workload at every boundary deterministically.
func (fb *FileBackend) SetCrashAfterSteps(n int64) { fb.crashAfter.Store(n) }

// PersistSteps returns the number of persistence side effects performed
// (or refused by an injected crash) so far.
func (fb *FileBackend) PersistSteps() int64 { return fb.steps.Load() }

// persistStep counts one persistence side effect and panics if a crash
// point is armed and reached, failing the handle: it stands for a process
// that is gone.
func (fb *FileBackend) persistStep() {
	n := fb.steps.Add(1)
	if c := fb.crashAfter.Load(); c > 0 && n >= c {
		err := fmt.Errorf("%w: killed at persistence step %d", ErrInjectedFault, n)
		fb.fail(err)
		panic(err)
	}
}

// fail fails the handle with err, unless it failed, and returns its error.
func (fb *FileBackend) fail(err error) error {
	fb.failure.CompareAndSwap(nil, &err)
	return *fb.failure.Load()
}

// failed returns the error that failed the handle, or nil.
func (fb *FileBackend) failed() error {
	if err := fb.failure.Load(); err != nil {
		return *err
	}
	return nil
}

// BlockSize implements Backend.
func (fb *FileBackend) BlockSize() int { return fb.blockSize }

// Stats implements Backend: one read per Read and ReadNoCopy, one write
// per page a Write stores. Log appends and header rewrites are the
// store's own and never counted.
func (fb *FileBackend) Stats() Stats {
	return Stats{Reads: fb.reads.Load(), Writes: fb.writes.Load()}
}

// ResetStats implements Backend.
func (fb *FileBackend) ResetStats() {
	fb.reads.Store(0)
	fb.writes.Store(0)
}

// NumPages implements Backend.
func (fb *FileBackend) NumPages() int {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	return fb.numPages
}

// PagesInUse implements Backend.
func (fb *FileBackend) PagesInUse() int {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	n := fb.numPages - len(fb.free)
	if fb.tx != nil {
		n -= len(fb.tx.freed)
	}
	return n
}

// ReusablePages returns the free pages Alloc would recycle as things stand,
// in no particular order: free in the committed state — pages freed by an
// open transaction become free at its Commit — and not pinned by a snapshot
// reader. It is what an owner that moves pages towards the start of the
// file (see Sync) has to plan with.
func (fb *FileBackend) ReusablePages() []PageID {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	return fb.unpinned(fb.free)
}

// offset returns the file offset of page id's slot.
func (fb *FileBackend) offset(id PageID) int64 {
	return int64(fb.blockSize) + int64(id)*int64(fb.slotSize)
}

func (fb *FileBackend) checkIDLocked(id PageID) {
	if int(id) >= fb.numPages {
		panic(fmt.Sprintf("storage: page %d out of range (have %d pages)", id, fb.numPages))
	}
}

// Alloc implements Backend. The lowest reusable free page is recycled
// first, so live pages gather at the start of the file and a checkpoint can
// cut the free ones off its end (see Sync). Recycled pages are zeroed in
// place (their old bytes are stale data); fresh pages extend the file
// lazily — reads past EOF already yield zeros, the first Write extends the
// file, and the next checkpoint's truncate materializes any unwritten
// tail — so a Write of consecutive fresh pages is one pwrite (see
// writeDirect).
//
// During a transaction only pages free in the last committed state are
// recycled; pages freed within the transaction still hold content a crash
// must be able to recover, and become allocatable after Commit.
func (fb *FileBackend) Alloc() PageID {
	fb.commitMu.RLock()
	defer fb.commitMu.RUnlock()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if id, ok := fb.takeLowest(&fb.free); ok {
		// The zero fill is a direct write: it must be durable by the
		// commit that makes the page reachable even if nobody writes the
		// page.
		fb.writeDirect(id, [][]byte{fb.zero})
		return id
	}
	id := PageID(fb.numPages)
	fb.numPages++
	return id
}

// Free implements Backend. The page joins the free list — inside a
// transaction at Commit, so the committed state never leaks it across a
// crash. Later allocations recycle from the list, lowest page first; a
// checkpoint writes it out as the file's trailer, less the free pages at
// the file's end, which it truncates away (see Sync). While snapshot
// readers are active the page is also retired (see
// Backend.SnapshotEnter): Alloc withholds it, and the checkpoint leaves it
// in the file, until the readers that might still dereference its bytes
// drain.
func (fb *FileBackend) Free(id PageID) {
	fb.commitMu.RLock()
	defer fb.commitMu.RUnlock()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.checkIDLocked(id)
	fb.retire(id)
	if tx := fb.tx; tx != nil {
		// Freed pages join the allocator only at Commit.
		tx.freed.push(id)
		return
	}
	fb.free.push(id)
}

// Read copies page id into buf, counting one block read, and returns the
// number of bytes copied: at most BlockSize. The block's CRC32C trailer is
// verified; a mismatch panics with an error wrapping ErrChecksum (use
// CheckPage or Fsck for a non-panicking scan). It is ReadNoCopy's fallback
// where the page has no view, and the pread the benchmark times alone.
func (fb *FileBackend) Read(id PageID, buf []byte) int {
	fb.reads.Add(1)
	if len(buf) > fb.blockSize {
		buf = buf[:fb.blockSize]
	}
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	fb.checkIDLocked(id)
	return fb.readVerified(id, buf)
}

// readVerified preads page id into buf and verifies its trailer.
// The caller holds at least a read lock.
func (fb *FileBackend) readVerified(id PageID, buf []byte) int {
	n, err := fb.f.ReadAt(buf, fb.offset(id))
	if err != nil && err != io.EOF {
		panic(fmt.Sprintf("storage: reading page %d: %v", id, err))
	}
	if err := fb.verifyTrailer(id, buf); err != nil {
		panic(err)
	}
	return n
}

// verifyTrailer checks buf (the head of page id, len(buf) <= blockSize)
// against the slot's checksum trailer. A missing trailer (EOF inside the
// slot) means a lazily extended, never-written page, which is valid and
// reads as zeros. The caller holds at least a read lock.
func (fb *FileBackend) verifyTrailer(id PageID, buf []byte) error {
	var tr [pageTrailerSize]byte
	tn, err := fb.f.ReadAt(tr[:], fb.offset(id)+int64(fb.blockSize))
	if err != nil && err != io.EOF {
		panic(fmt.Sprintf("storage: reading page %d trailer: %v", id, err))
	}
	if tn < pageTrailerSize {
		return nil // page beyond EOF: unwritten, zeros by construction
	}
	data := buf
	if dataLen := int(binary.LittleEndian.Uint32(tr[4:8])); dataLen > len(buf) && dataLen <= fb.blockSize {
		// The caller asked for a prefix shorter than the checksummed
		// content; fetch the full extent to verify.
		data = make([]byte, dataLen)
		if _, err := fb.f.ReadAt(data, fb.offset(id)); err != nil && err != io.EOF {
			panic(fmt.Sprintf("storage: reading page %d: %v", id, err))
		}
	}
	return checkTrailer(id, data, tr[:], fb.blockSize)
}

// checkTrailer verifies data — the head of page id, at least as long as
// the trailer's checksummed length if that is a possible one — against
// the slot's checksum trailer.
func checkTrailer(id PageID, data, trailer []byte, blockSize int) error {
	want := binary.LittleEndian.Uint32(trailer[0:4])
	dataLen := int(binary.LittleEndian.Uint32(trailer[4:8]))
	if dataLen > blockSize {
		return fmt.Errorf("storage: page %d: %w: trailer claims %d bytes in a %d-byte block",
			id, ErrChecksum, dataLen, blockSize)
	}
	if got := crc32.Checksum(data[:dataLen], castagnoli); got != want {
		return fmt.Errorf("storage: page %d: %w: stored %08x, computed %08x over %d bytes",
			id, ErrChecksum, want, got, dataLen)
	}
	return nil
}

// CheckPage verifies page id's checksum trailer without panicking,
// returning an error wrapping ErrChecksum on a mismatch.
func (fb *FileBackend) CheckPage(id PageID) error {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	if int(id) >= fb.numPages {
		return fmt.Errorf("storage: page %d out of range (have %d pages)", id, fb.numPages)
	}
	buf := make([]byte, fb.blockSize)
	if _, err := fb.f.ReadAt(buf, fb.offset(id)); err != nil && err != io.EOF {
		return fmt.Errorf("storage: reading page %d: %w", id, err)
	}
	return fb.verifyTrailer(id, buf)
}

// Fsck verifies the checksum trailer of every in-use page (freelist pages
// hold no live data and are skipped), returning the first failure as a
// wrapped, inspectable error. It never panics on corrupt content.
func (fb *FileBackend) Fsck() error {
	fb.mu.RLock()
	freeSet := make(map[PageID]struct{}, len(fb.free))
	for _, id := range fb.free {
		freeSet[id] = struct{}{}
	}
	if tx := fb.tx; tx != nil {
		for _, id := range tx.freed {
			freeSet[id] = struct{}{}
		}
	}
	numPages := fb.numPages
	fb.mu.RUnlock()
	for id := PageID(0); int(id) < numPages; id++ {
		if _, free := freeSet[id]; free {
			continue
		}
		if err := fb.CheckPage(id); err != nil {
			return err
		}
	}
	return nil
}

// ReadNoCopy implements Backend: the page's mapped view where it has one
// (see view), otherwise one Read into a private copy of the page.
func (fb *FileBackend) ReadNoCopy(id PageID) []byte {
	if data := fb.view(id); data != nil {
		return data
	}
	buf := make([]byte, fb.blockSize)
	fb.Read(id, buf)
	return buf
}

// PeekNoCopy implements Backend. Peeks are deliberately unverified: they
// serve open-time sanity checks that must report structural errors rather
// than panic; checksum verification belongs to Read, CheckPage and Fsck.
func (fb *FileBackend) PeekNoCopy(id PageID) []byte {
	buf := make([]byte, fb.blockSize)
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	fb.checkIDLocked(id)
	if _, err := fb.f.ReadAt(buf, fb.offset(id)); err != nil && err != io.EOF {
		panic(fmt.Sprintf("storage: reading page %d: %v", id, err))
	}
	return buf
}

// Write implements Backend: pages[i] and its checksum trailer go into page
// id+i's slot, in a transaction or out of one, and are in the file when
// Write returns. The caller owns the pages: it allocated them and has not
// published them in a committed state (see the invariant on FileBackend).
func (fb *FileBackend) Write(id PageID, pages ...[]byte) {
	for _, data := range pages {
		if len(data) > fb.blockSize {
			panic(fmt.Sprintf("storage: write of %d bytes exceeds block size %d", len(data), fb.blockSize))
		}
	}
	if len(pages) == 0 {
		return
	}
	fb.writes.Add(uint64(len(pages)))
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	fb.checkIDLocked(id + PageID(len(pages)-1))
	fb.writeDirect(id, pages)
}

// writeDirect puts pages[i] and its trailer into page id+i's slot and marks
// the page file as holding bytes only an fsync makes durable. The caller
// holds at least a read lock (geometry is stable).
//
// The slots — data, zeros to the end of the block, trailer — are formatted
// in a scratch buffer and go out with one pwrite. Only one short page over
// a slot the file already holds is written as two, its data and its
// trailer, so that the old tail stays. Every page is one persistence step,
// all taken before the pwrite, so an injected crash inside a batch writes
// none of it. A failed handle writes nothing.
func (fb *FileBackend) writeDirect(id PageID, pages [][]byte) {
	if fb.failed() != nil {
		return
	}
	for range pages {
		fb.persistStep()
	}
	off := fb.offset(id)
	if data := pages[0]; len(pages) == 1 && len(data) < fb.blockSize && off < fb.extent.Load() {
		var tr [pageTrailerSize]byte
		putTrailer(tr[:], data)
		if fb.pwrite(data, off, id) && fb.pwrite(tr[:], off+int64(fb.blockSize), id) {
			fb.wrote(id, 1, off+int64(fb.slotSize))
		}
		return
	}
	n := len(pages) * fb.slotSize
	fb.scratchMu.Lock()
	defer fb.scratchMu.Unlock()
	if len(fb.scratch) < n {
		fb.scratch = make([]byte, n)
	}
	buf := fb.scratch[:n]
	for i, data := range pages {
		fb.fillSlot(buf[i*fb.slotSize:][:fb.slotSize], data)
	}
	if fb.pwrite(buf, off, id) {
		fb.wrote(id, len(pages), off+int64(n))
	}
}

// fillSlot encodes a page slot: data, zeros to the end of the block, and
// the checksum trailer.
func (fb *FileBackend) fillSlot(slot, data []byte) {
	n := copy(slot, data)
	clear(slot[n:fb.blockSize])
	putTrailer(slot[fb.blockSize:], data)
}

// putTrailer writes data's checksum trailer into tr.
func putTrailer(tr, data []byte) {
	binary.LittleEndian.PutUint32(tr[0:4], crc32.Checksum(data, castagnoli))
	binary.LittleEndian.PutUint32(tr[4:8], uint32(len(data)))
}

// pwrite writes b at off and reports whether it did; a write that fails
// fails the handle.
func (fb *FileBackend) pwrite(b []byte, off int64, id PageID) bool {
	if _, err := fb.f.WriteAt(b, off); err != nil {
		fb.fail(fmt.Errorf("storage: writing page %d: %w", id, err))
		return false
	}
	return true
}

// wrote records that the n slots from page id on are in the file, up to
// end: the next view of each verifies it afresh, the extent reaches end,
// and the page file holds bytes only an fsync makes durable. The mark
// follows the pwrite, so a flush that clears it has the bytes (see
// syncPageFile).
func (fb *FileBackend) wrote(id PageID, n int, end int64) {
	for i := range n {
		fb.pm.unverify(id + PageID(i))
	}
	for {
		cur := fb.extent.Load()
		if end <= cur || fb.extent.CompareAndSwap(cur, end) {
			break
		}
	}
	fb.pagesDirty.Store(true)
}

// SetMeta implements Backend. The blob is persisted by the next Commit or
// Sync and must fit the header block alongside the fixed header.
func (fb *FileBackend) SetMeta(meta []byte) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.tx != nil {
		fb.tx.metaSet = true
	}
	fb.meta = append(fb.meta[:0], meta...)
}

// Meta implements Backend.
func (fb *FileBackend) Meta() []byte {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	if fb.meta == nil {
		return nil
	}
	out := make([]byte, len(fb.meta))
	copy(out, fb.meta)
	return out
}

// Begin implements Backend: it opens a transaction. Transactions do not
// nest, and a closed or failed handle opens none.
func (fb *FileBackend) Begin() {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.closed || fb.failed() != nil {
		return
	}
	if fb.tx != nil {
		panic("storage: nested transaction on page file")
	}
	// The first transaction of a log generation re-journals the
	// checkpointed state before any page write: direct writes to fresh
	// pages extend the file over the on-disk freelist trailer, and a crash
	// mid-transaction must still find the committed freelist somewhere —
	// in the log, which Open prefers over the header once it holds a
	// committed state: the state, as a committed empty transaction. An
	// append that fails fails the handle.
	if !fb.walHasState && len(fb.ckpt.free) > 0 {
		tx := walTx{seq: fb.walSeq + 1, state: &fb.ckpt}
		if fb.appendWAL(tx.records(nil), 2) != nil {
			return
		}
		fb.walSeq++
		fb.walHasState = true
	}
	fb.tx = &fileTx{}
}

// Note logs data — opaque to the backend — with the open transaction: it
// becomes durable with the commit and comes back from RecoveredNotes, in
// commit order, when the log is replayed after a crash. A transaction that
// does nothing else commits as a light transaction (see "# Durability").
// Notes are for changes to state the owner keeps outside the page file's
// pages and saves there only now and then; the owner must be able to
// re-apply them to the state of its last save. Outside a transaction there
// is nothing to log a note with and it is dropped, as the transaction
// hooks themselves are no-ops on a backend that has none.
func (fb *FileBackend) Note(data []byte) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if tx := fb.tx; tx != nil {
		tx.notes = appendWALRecord(tx.notes, walRecNote, data)
		tx.nNotes++
	}
}

// appendWAL appends recs, n records framed in one buffer, at the log's end
// with one pwrite and fsyncs the log; records that would run past the
// zeros written ahead of them first write the next extension. An append or
// fsync that fails fails the handle. The caller owns the log's tail: it
// holds mu, or the commit gate.
func (fb *FileBackend) appendWAL(recs []byte, n int) error {
	at := fb.walSize.Load()
	if end := at + int64(len(recs)); end > fb.walEnd {
		if err := fb.extendWAL(end); err != nil {
			return err
		}
	}
	fb.persistStep()
	if _, err := fb.wal.WriteAt(recs, at); err != nil {
		return fb.fail(fmt.Errorf("storage: appending to write-ahead log: %w", err))
	}
	fb.walSize.Add(int64(len(recs)))
	fb.walRecords.Add(int64(n))
	fb.walBytes.Add(int64(len(recs)))
	fb.persistStep()
	if err := fb.syncWAL(); err != nil {
		return fb.fail(fmt.Errorf("storage: fsync write-ahead log: %w", err))
	}
	return nil
}

// extendWAL writes the log's next extension of zeros, walExtend bytes or
// as many as it takes to reach need, as one persistence step. The caller
// owns the log's tail.
func (fb *FileBackend) extendWAL(need int64) error {
	end := max(fb.walEnd+walExtend, need)
	fb.persistStep()
	for off := fb.walEnd; off < end; {
		n, err := fb.wal.WriteAt(walZeros[:min(end-off, walExtend)], off)
		if err != nil {
			return fb.fail(fmt.Errorf("storage: extending write-ahead log: %w", err))
		}
		off += int64(n)
	}
	fb.walEnd = end
	return nil
}

// Commit implements Backend. It makes the transaction durable and
// atomic: page writes since the page file's last fsync are flushed first
// (unless the commit is light), then the notes, the post-state (unless
// light) and a commit marker are appended to the log and fsynced — one
// fsync, the commit point.
//
// The disk is waited for under the commit gate, not under mu: readers and
// writers go on, Alloc and Free wait (see "# Locks"). On an error the
// transaction stays open for the caller to Rollback.
func (fb *FileBackend) Commit() error {
	fb.commitMu.Lock()
	defer fb.commitMu.Unlock()
	c, err := fb.prepareCommit()
	if err != nil {
		return err
	}
	if c.flushPages {
		fb.persistStep()
		if err := fb.syncPageFile(); err != nil {
			return fb.fail(fmt.Errorf("storage: fsync page file before commit: %w", err))
		}
	}
	if err := fb.appendWAL(c.recs, c.n); err != nil {
		return err
	}
	fb.finishCommit(c.seq)
	return nil
}

// fileCommit is what prepareCommit hands to the rest of Commit.
type fileCommit struct {
	seq        uint64
	recs       []byte // the framed records
	n          int    // how many
	flushPages bool
}

// prepareCommit validates the open transaction and frames its records.
// The gate keeps what it read — the freelist — unchanged until
// finishCommit.
func (fb *FileBackend) prepareCommit() (fileCommit, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	var c fileCommit
	if fb.closed {
		return c, errors.New("storage: commit on closed page file")
	}
	if err := fb.failed(); err != nil {
		return c, err
	}
	tx := fb.tx
	if tx == nil {
		return c, errors.New("storage: commit without begin")
	}
	if len(fb.meta) > MetaCapacity(fb.blockSize) {
		return c, fmt.Errorf("storage: metadata blob of %d bytes overflows the %d-byte header block",
			len(fb.meta), fb.blockSize)
	}
	c.seq = fb.walSeq + 1
	wtx := walTx{seq: c.seq}
	c.n = tx.nNotes + 1
	if !fb.walHasState || !tx.light() {
		free := make([]PageID, 0, len(fb.free)+len(tx.freed))
		free = append(append(free, fb.free...), tx.freed...)
		wtx.state = &walState{numPages: fb.numPages, free: free, meta: fb.meta}
		c.flushPages = fb.pagesDirty.Load()
		c.n++
	}
	// Clipped: the records get a buffer of their own, and tx.notes stays.
	c.recs = wtx.records(slices.Clip(tx.notes))
	return c, nil
}

// finishCommit runs once the commit marker is durable: it hands the freed
// pages to the allocator and closes the transaction.
func (fb *FileBackend) finishCommit(seq uint64) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.walHasState = true
	for _, id := range fb.tx.freed {
		fb.free.push(id)
	}
	fb.walSeq = seq
	fb.tx = nil
}

// Rollback implements Backend: it fails the handle and restores nothing.
// Readers still traversing what the transaction wrote read it in the file,
// which holds the last commit for the next Open to recover.
func (fb *FileBackend) Rollback() {
	fb.fail(errors.New("storage: a transaction did not commit"))
}

// Sync implements Backend: a checkpoint. It gives up the free pages at the
// end of the file — the run of free pages, not pinned by a snapshot reader,
// that ends at the last slot leaves the page count and the free list —
// rewrites the header block and the freelist trailer, truncates the file to
// its exact recorded size (header, the page slots up to the last one in
// use or pinned — free ones below it included — and the trailer), fsyncs,
// and retires the write-ahead log: after Sync the page file alone describes
// the committed state. Free pages in the middle of the file stay; the
// allocator fills them lowest first, so whoever owns the pages can move the
// file's tail into them and have the next checkpoint return the space.
// Syncing inside an open transaction is an error; Commit first.
//
// The tail is given up only when the log holds a committed state (any
// commit since the last checkpoint does that): a crash between the header
// rewrite and the log's truncation then recovers from the log, whose state
// still counts the dropped pages — as free ones, so nothing reads them —
// and the reopening checkpoint drops them again. With an empty log the
// header would be the only record of a geometry whose trailer is not
// written yet.
//
// While recovered notes are unconsumed (see RecoveredNotes) the log is the
// committed state and must outlive this handle: Sync then flushes the page
// file and leaves the header and the log as they are.
func (fb *FileBackend) Sync() error {
	fb.commitMu.RLock() // a commit in flight finishes first
	defer fb.commitMu.RUnlock()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.syncLocked()
}

func (fb *FileBackend) syncLocked() error {
	if fb.closed {
		return errors.New("storage: sync on closed page file")
	}
	if err := fb.failed(); err != nil {
		return err
	}
	if fb.tx != nil {
		return errors.New("storage: sync inside an open transaction")
	}
	if len(fb.meta) > MetaCapacity(fb.blockSize) {
		return fmt.Errorf("storage: metadata blob of %d bytes overflows the %d-byte header block",
			len(fb.meta), fb.blockSize)
	}
	// A checkpoint sets the file's size. Over a file someone cut short it
	// would put zeros where pages were and call the result consistent.
	st, err := fb.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	if want := fb.extent.Load(); st.Size() < want {
		return fmt.Errorf("storage: sync %s: %w: %d bytes on disk, this handle left %d",
			fb.path, ErrTruncated, st.Size(), want)
	}
	if fb.notesPending {
		fb.persistStep()
		if err := fb.syncPageFile(); err != nil {
			return fb.fail(fmt.Errorf("storage: fsync page file: %w", err))
		}
		return nil
	}
	if fb.walHasState {
		fb.free, fb.numPages = fb.trimTail(fb.free, fb.numPages)
	}
	hdr := make([]byte, fileHeaderSize+len(fb.meta))
	copy(hdr[0:6], fileMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(fb.blockSize))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(fb.numPages))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(fb.free)))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(fb.meta)))
	copy(hdr[fileHeaderSize:], fb.meta)
	fb.persistStep()
	if _, err := fb.f.WriteAt(hdr, 0); err != nil {
		return fb.fail(fmt.Errorf("storage: writing page-file header: %w", err))
	}
	end := int64(fb.blockSize) + int64(fb.numPages)*int64(fb.slotSize)
	if len(fb.free) > 0 {
		trailer := make([]byte, 4*len(fb.free))
		for i, id := range fb.free {
			binary.LittleEndian.PutUint32(trailer[4*i:], uint32(id))
		}
		fb.persistStep()
		if _, err := fb.f.WriteAt(trailer, end); err != nil {
			return fb.fail(fmt.Errorf("storage: writing freelist trailer: %w", err))
		}
		end += int64(4 * len(fb.free))
	}
	if err := fb.f.Truncate(end); err != nil {
		return fb.fail(fmt.Errorf("storage: truncating page file: %w", err))
	}
	fb.extent.Store(end)
	fb.persistStep()
	if err := fb.syncPageFile(); err != nil {
		return fb.fail(fmt.Errorf("storage: fsync page file: %w", err))
	}
	if fb.walEnd > walHeaderSize {
		fb.persistStep()
		if err := fb.wal.Truncate(walHeaderSize); err != nil {
			return fb.fail(fmt.Errorf("storage: truncating write-ahead log: %w", err))
		}
		if err := fb.syncWAL(); err != nil {
			return fb.fail(fmt.Errorf("storage: fsync write-ahead log: %w", err))
		}
		fb.setWALEnd(walHeaderSize)
	}
	// The checkpoint is complete: snapshot what the header now records for
	// the next transaction's state guard, and start a fresh log generation.
	fb.ckpt = walState{
		numPages: fb.numPages,
		free:     append([]PageID(nil), fb.free...),
		meta:     append([]byte(nil), fb.meta...),
	}
	fb.walHasState = false
	return nil
}

// Abandon closes the files WITHOUT syncing, leaving the on-disk bytes
// exactly as they were. It exists for error paths (e.g. a failed Open
// whose caller must not mutate a file it could not validate) and for
// crash tests that must model a process dying; normal shutdown uses Close.
func (fb *FileBackend) Abandon() {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.abandonLocked()
}

// abandonLocked releases the files as they are and returns what closing
// them returned.
func (fb *FileBackend) abandonLocked() error {
	if fb.closed {
		return nil
	}
	fb.closed = true
	fb.pm.unmap()
	return errors.Join(fb.f.Close(), fb.wal.Close())
}

// Close implements Backend: it checkpoints (Sync) and releases the files as
// Abandon does, returning what either step returned. A failed handle is
// only abandoned: it writes nothing and Close returns nil. Closing an
// already closed backend is a no-op.
func (fb *FileBackend) Close() error {
	fb.commitMu.RLock() // a commit in flight finishes first
	defer fb.commitMu.RUnlock()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.closed || fb.failed() != nil {
		fb.abandonLocked()
		return nil
	}
	return errors.Join(fb.syncLocked(), fb.abandonLocked())
}
