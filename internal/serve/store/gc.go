package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// GC runs one offline collection pass over the store at dir: every
// artifact is read and checksum-verified (corrupt ones are quarantined
// exactly as the serving path would), stray publish temp files are
// swept, quarantine entries older than the TTL are dropped, and the
// access journal is compacted to one line per surviving object with
// recency carried over — so a subsequent Open replays a minimal
// journal and the LRU order survives the compaction.
//
// GC assumes exclusive ownership of dir: run it offline, not under a
// live daemon. Recoverable damage (corruption, strays, expired
// quarantine) is repaired and reported, not returned as an error; the
// error path is reserved for an unreadable store or a failed journal
// rewrite.
func GC(dir string, opts GCOptions) (*GCReport, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	rep := &GCReport{}
	objects := filepath.Join(dir, "objects")
	if err := fsys.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: gc %s: %w", dir, err)
	}

	// Recency and kinds from the old journal, so compaction preserves
	// the LRU order Open would have replayed.
	type hint struct {
		kind string
		last int64
		seq  int64
	}
	hints := map[string]hint{}
	var seq int64
	if data, err := fsys.ReadFile(filepath.Join(dir, "journal.log")); err == nil {
		accessRecords(data, func(sha, kind string, last int64) {
			seq++
			h := hints[sha]
			if kind != "" {
				h.kind = kind
			}
			if last > h.last {
				h.last = last
			}
			h.seq = seq
			hints[sha] = h
		})
	}

	type live struct {
		sha  string
		kind string
		size int64
		last int64
		seq  int64
	}
	var survivors []live
	fanouts, err := os.ReadDir(objects)
	if err != nil {
		return nil, fmt.Errorf("store: gc %s: %w", dir, err)
	}
	for _, fan := range fanouts {
		if !fan.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(objects, fan.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: gc %s: %w", dir, err)
		}
		for _, f := range files {
			path := filepath.Join(objects, fan.Name(), f.Name())
			sha := shaOfObjectFile(f.Name())
			if sha == "" {
				// A publish temp file (or other stray): its rename never
				// happened, so it was never an artifact. Sweep it.
				if err := fsys.Remove(path); err == nil {
					rep.DroppedTmp++
				}
				continue
			}
			data, err := fsys.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("store: gc read %s: %w", path, err)
			}
			art, reason := decode(data, key.Key{SHA: sha}, nil)
			if art == nil {
				dst, err := faultfs.Quarantine(fsys, path, faultfs.CorruptDir(dir), reason)
				if err != nil {
					return nil, fmt.Errorf("store: gc quarantine %s: %w", path, err)
				}
				if dst != "" {
					rep.Quarantined++
				}
				continue
			}
			rep.Verified++
			h := hints[sha]
			kind := art.Kind
			if kind == "" {
				kind = h.kind
			}
			last := h.last
			if last == 0 {
				if info, err := f.Info(); err == nil {
					last = info.ModTime().Unix()
				}
			}
			survivors = append(survivors, live{sha, kind, int64(len(data)), last, h.seq})
			rep.Objects++
			rep.Bytes += int64(len(data))
		}
	}

	// Drop expired quarantine (and orphaned .reason siblings).
	if opts.QuarantineTTL > 0 {
		qdir := faultfs.CorruptDir(dir)
		cutoff := fsys.Now().Add(-opts.QuarantineTTL)
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
				if err := fsys.Remove(path); err == nil {
					rep.DroppedQuarantine++
					_ = fsys.Remove(path + ".reason")
				}
			}
		}
	}

	// Compact the journal: one put line per survivor, oldest access
	// first, atomically replacing the old log.
	sort.Slice(survivors, func(i, j int) bool {
		if survivors[i].last != survivors[j].last {
			return survivors[i].last < survivors[j].last
		}
		return survivors[i].seq < survivors[j].seq
	})
	var buf bytes.Buffer
	for _, o := range survivors {
		buf.Write(journalLine("put", o.sha, o.kind, o.size, o.last))
	}
	rep.JournalLines = len(survivors)
	if err := faultfs.AtomicWrite(fsys, filepath.Join(dir, "journal.log"), buf.Bytes()); err != nil {
		return nil, fmt.Errorf("store: gc journal rewrite: %w", err)
	}
	return rep, nil
}
