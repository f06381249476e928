// Package checkpoint makes long partitioning runs restartable: it
// persists engine progress into a crash-safe journal so a run killed by
// OOM, SIGKILL, or a node reboot resumes from its completed starts
// instead of re-burning them — and, because the engine's per-start RNG
// streams are pure functions of (seed, start index), a resumed run
// returns a result bit-for-bit identical to an uninterrupted one.
//
// The durability story, bottom to top:
//
//   - Creation is atomic. A new journal is written to a temp file,
//     fsynced, renamed into place, and the directory fsynced, so the
//     journal path never holds a half-written header.
//   - Every record is CRC32-framed: [length][crc32(payload)][payload].
//     Appends are fsynced, so an acknowledged record survives a crash.
//   - Recovery tolerates torn writes. The open scan walks frames in
//     order and truncates the file at the first short, oversized, or
//     checksum-failing frame — a crash mid-append loses at most the
//     record being written, never the journal.
//
// The run-level layer (run.go) gives the frames meaning: a Meta header
// binds the journal to one (algorithm, instance, seed, starts) run, and
// start-completion records carry the progress the engine resumes from.
// internal/serve reuses the frame layer for the daemons' request WAL.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"fasthgp/internal/faultinject"
)

// frameHeaderSize is the per-record overhead: a uint32 payload length
// followed by the payload's CRC32 (IEEE), both little-endian.
const frameHeaderSize = 8

// maxRecordSize bounds a single record; a length field beyond it is
// treated as corruption rather than an allocation request.
const maxRecordSize = 1 << 30

// ErrTornWrite is returned by Append when an injected torn-write fault
// persisted only a prefix of the record. The journal is unusable for
// further appends (exactly like a real crash); reopening it truncates
// the torn tail.
var ErrTornWrite = errors.New("checkpoint: torn write injected")

// ErrNoHeader is returned (wrapped, with the path) by Open when the
// file's first frame is unreadable: such a journal is corrupt beyond
// recovery and must not be silently treated as empty.
var ErrNoHeader = errors.New("checkpoint: no intact header record")

// ErrWedged is returned by Append after a failed disk write could not
// be rolled back: the file may end mid-frame, so further appends would
// write records that recovery will discard. Reopening the journal
// truncates the debris and clears the condition.
var ErrWedged = errors.New("checkpoint: journal wedged by unrecoverable write error")

// DiskError is returned by Append when the underlying disk write or
// fsync fails (for real, or via an injected errno fault). The journal
// has shed the failed record — the file was truncated back to the last
// durable frame boundary — so the caller may keep appending once the
// disk recovers; until then each attempt fails fast with a DiskError.
type DiskError struct {
	Op  string // "write" or "fsync"
	Err error
}

func (e *DiskError) Error() string {
	return fmt.Sprintf("checkpoint: disk %s failed (record shed): %v", e.Op, e.Err)
}

func (e *DiskError) Unwrap() error { return e.Err }

// Journal is an append-only CRC-framed record log. It is not safe for
// concurrent use; callers serialize (the engine already funnels
// checkpoint records through one mutex).
type Journal struct {
	f      *os.File
	path   string
	seq    int   // records written through this handle (fault-injection index)
	off    int64 // end of the last fully durable frame
	wedged bool  // a failed write could not be truncated away
}

// Create atomically creates a journal at path containing just the
// header record: the full file is assembled at path+".tmp", fsynced,
// renamed over path, and the directory fsynced. An existing journal at
// path is replaced.
func Create(path string, header []byte) (*Journal, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path}
	if err := j.Append(header); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Open opens an existing journal, scans it, truncates any torn tail,
// and returns the surviving record payloads (the header is records[0]).
// The returned journal appends after the last valid record. A file
// whose header record is unreadable is corrupt beyond recovery.
func Open(path string) (*Journal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	records, valid, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if len(records) == 0 {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s", ErrNoHeader, path)
	}
	// Truncate at the first corruption so the next append starts on a
	// clean frame boundary.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path, seq: len(records), off: valid}, records, nil
}

// scan walks the frames of f from the start and returns every intact
// payload plus the byte offset where the intact prefix ends.
func scan(f *os.File) (records [][]byte, valid int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := info.Size()
	var off int64
	var hdr [frameHeaderSize]byte
	for {
		if off+frameHeaderSize > size {
			return records, off, nil // short header: torn tail
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return records, off, nil
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordSize || off+frameHeaderSize+n > size {
			return records, off, nil // implausible length or short payload
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+frameHeaderSize); err != nil {
			return records, off, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, off, nil // bit rot or torn overwrite
		}
		records = append(records, payload)
		off += frameHeaderSize + n
	}
}

// Append frames payload, writes it, and fsyncs. The faultinject points
// checkpoint.write and checkpoint.fsync fire with the record sequence
// number; a matching torn rule persists only half the frame and returns
// ErrTornWrite, and a matching errno rule fails the operation with that
// errno (a partial frame is persisted first on write faults, as a full
// disk would leave).
//
// A failed write or fsync — real or injected — sheds the record: the
// file is truncated back to the last durable frame boundary and the
// error returned as a *DiskError, so the journal stays appendable once
// the disk recovers instead of accumulating garbage frames. If even the
// rollback fails, the journal wedges and every later Append returns
// ErrWedged.
func (j *Journal) Append(payload []byte) error {
	if j.wedged {
		return ErrWedged
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("checkpoint: record of %d bytes exceeds limit", len(payload))
	}
	seq := j.seq
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)

	faultinject.Fire(faultinject.PointCheckpointWrite, seq)
	if faultinject.ShouldTear(faultinject.PointCheckpointWrite, seq) {
		if _, err := j.f.Write(frame[:len(frame)/2]); err != nil {
			return err
		}
		j.f.Sync()
		return ErrTornWrite
	}
	if errno, ok := faultinject.InjectedErrno(faultinject.PointCheckpointWrite, seq); ok {
		// A real short write leaves a partial frame behind; persist one
		// before failing so the shed path has debris to clean up.
		j.f.Write(frame[:len(frame)/2])
		return j.shed("write", errno)
	}
	if _, err := j.f.Write(frame); err != nil {
		return j.shed("write", err)
	}
	faultinject.Fire(faultinject.PointCheckpointSync, seq)
	if errno, ok := faultinject.InjectedErrno(faultinject.PointCheckpointSync, seq); ok {
		return j.shed("fsync", errno)
	}
	if err := j.f.Sync(); err != nil {
		// After a failed fsync the written frame's durability is
		// unknown (the kernel may have dropped the dirty pages), so the
		// only safe move is to discard it.
		return j.shed("fsync", err)
	}
	j.seq++
	j.off += int64(len(frame))
	return nil
}

// shed rolls the file back to the last durable frame boundary after a
// failed write or fsync and reports the failure as a *DiskError. If the
// rollback itself fails the journal wedges.
func (j *Journal) shed(op string, cause error) error {
	if err := j.f.Truncate(j.off); err != nil {
		j.wedged = true
		return &DiskError{Op: op, Err: cause}
	}
	if _, err := j.f.Seek(j.off, io.SeekStart); err != nil {
		j.wedged = true
		return &DiskError{Op: op, Err: cause}
	}
	return &DiskError{Op: op, Err: cause}
}

// Wedged reports whether a failed rollback has made the journal
// unusable for further appends.
func (j *Journal) Wedged() bool { return j.wedged }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// syncDir fsyncs a directory so a completed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Best-effort: some filesystems refuse directory fsync, and the
	// rename itself is ordered on any journaling filesystem.
	d.Sync()
	return nil
}
