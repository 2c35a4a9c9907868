package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/faultfs"
	"repro/internal/serve/key"
)

// GCOptions parameterizes one offline collection pass.
type GCOptions struct {
	// FS is the filesystem seam (nil = the real OS).
	FS faultfs.FS
	// QuarantineTTL drops corrupt/ entries older than this (their
	// .reason siblings too); 0 keeps quarantine forever. Age is
	// measured by file mtime against the seam clock.
	QuarantineTTL time.Duration
}

// GCReport is what one pass found and did. Quarantined, DroppedTmp
// and DroppedQuarantine describe recoverable damage the pass repaired
// — a store with a non-zero report is healthy afterwards, which is
// why the gc subcommand exits zero on them.
type GCReport struct {
	// Objects and Bytes are the live footprint after the pass.
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
	// Verified counts artifacts whose checksum round-tripped.
	Verified int `json:"verified"`
	// Quarantined counts corrupt artifacts moved to corrupt/.
	Quarantined int `json:"quarantined"`
	// DroppedTmp counts stray publish temp files removed (crash
	// leftovers whose rename never happened).
	DroppedTmp int `json:"dropped_tmp"`
	// DroppedQuarantine counts quarantine entries past the TTL removed.
	DroppedQuarantine int `json:"dropped_quarantine"`
	// JournalLines is the compacted journal's line count (one per live
	// object).
	JournalLines int `json:"journal_lines"`
}

// GC runs one offline collection pass over the store at dir: it opens
// the store, so the index it works on is the one Open builds, then
// every indexed artifact is read and checksum-verified (corrupt ones
// are quarantined exactly as the serving path would), stray publish
// temp files are swept, quarantine entries older than the TTL are
// dropped, and the access journal is compacted to one line per
// surviving object, written from the index's LRU order — so a
// subsequent Open replays a minimal journal into the same ranks and
// access times.
//
// GC assumes exclusive ownership of dir: run it offline, not under a
// live daemon. Recoverable damage (corruption, strays, expired
// quarantine) is repaired and reported, not returned as an error; the
// error path is reserved for an unreadable store or a failed journal
// rewrite.
func GC(dir string, opts GCOptions) (*GCReport, error) {
	s, strays, err := open(dir, Options{FS: opts.FS})
	if err != nil {
		return nil, err
	}
	rep := &GCReport{}
	for _, path := range strays {
		// A publish temp file (or other stray): its rename never
		// happened, so it was never an artifact.
		if err := s.fsys.Remove(path); err == nil {
			rep.DroppedTmp++
		}
	}

	// Verify back to front and compact as we go: one put line per
	// survivor, least recently accessed first, so replaying the
	// compacted journal rebuilds this order.
	var journal bytes.Buffer
	for el := s.lifecycle.lru.Back(); el != nil; {
		o := el.Value.(*object)
		el = el.Prev() // a quarantine unlinks o's element
		k := key.Key{SHA: o.sha}
		path := s.ObjectPath(k)
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: gc read %s: %w", path, err)
		}
		size := int64(len(data))
		art, reason := decode(data, k, nil)
		if art == nil {
			if s.quarantine(context.Background(), path, reason, size) {
				rep.Quarantined++
			}
			continue
		}
		rep.Verified++
		rep.Objects++
		rep.Bytes += size
		kind := art.Kind
		if kind == "" {
			kind = o.kind
		}
		journal.Write(journalLine("put", o.sha, kind, size, o.last))
	}

	// Drop expired quarantine (and orphaned .reason siblings).
	if opts.QuarantineTTL > 0 {
		qdir := faultfs.CorruptDir(dir)
		cutoff := s.fsys.Now().Add(-opts.QuarantineTTL)
		if entries, err := os.ReadDir(qdir); err == nil {
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".reason") {
					continue
				}
				info, err := e.Info()
				if err != nil || !info.ModTime().Before(cutoff) {
					continue
				}
				path := filepath.Join(qdir, e.Name())
				if err := s.fsys.Remove(path); err == nil {
					rep.DroppedQuarantine++
					_ = s.fsys.Remove(path + ".reason")
				}
			}
		}
	}

	rep.JournalLines = rep.Verified
	if err := faultfs.AtomicWrite(s.fsys, s.journalPath(), journal.Bytes()); err != nil {
		return nil, fmt.Errorf("store: gc journal rewrite: %w", err)
	}
	return rep, nil
}
