package store

import (
	"container/list"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/key"
)

// lifecycle is the store's in-memory object index: which artifacts
// exist, how big they are, and in what recency order — the state
// behind O(1) Size, paginated Keys, and strict-LRU eviction. The
// objects tree is ground truth; the index is rebuilt from a directory
// scan at Open and kept current by put/get/evict/quarantine hooks.
//
// Recency survives restarts through journal.log, an append-only
// access log (one line per put or read hit, plus evict/quarantine
// tombstones). It is deliberately cheap: buffered appends, no fsync —
// a crash may truncate its tail, which costs at most some recency
// precision, never correctness. Open replays it over the scan, so one
// rule sets recency: journal order wins, and objects the journal does
// not name sit behind the ones it does, in mtime order. GC opens the
// store and writes this index back as one line per live object, in
// LRU order, so a compaction keeps every rank and access time.
type lifecycle struct {
	s *Store

	mu      sync.Mutex
	entries map[string]*list.Element // sha → element whose Value is *object
	lru     *list.List               // front = most recently accessed
	objects int
	bytes   int64
}

// object is one indexed artifact.
type object struct {
	sha  string
	kind string // "" until first put/journal line names it
	size int64
	last int64 // unix seconds of last access (seam clock)
}

// KeyInfo is one /v1/keys row.
type KeyInfo struct {
	Key        string `json:"key"` // sha256:<sha>
	Kind       string `json:"kind,omitempty"`
	Bytes      int64  `json:"bytes"`
	LastAccess string `json:"last_access"` // RFC3339, seam clock
}

// Stats is the store's footprint, maintained incrementally — reading
// it never walks the objects tree.
type Stats struct {
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
}

func (s *Store) journalPath() string { return filepath.Join(s.root, "journal.log") }

// init rebuilds the index: scan the objects tree for ground truth,
// then replay the journal for recency and kinds. The scan lists
// directories with the os package directly — the seam deliberately
// has no listing operation (fault schedules target I/O on artifact
// content, not enumeration), matching the old Size walk. It returns
// the paths of the stray files it passed over (publish temps whose
// rename never happened), which GC sweeps.
func (l *lifecycle) init(s *Store) (strays []string, err error) {
	l.s = s
	l.entries = map[string]*list.Element{}
	l.lru = list.New()

	type scanned struct {
		sha   string
		size  int64
		mtime int64
	}
	var found []scanned
	fanouts, err := os.ReadDir(s.objects)
	if err != nil {
		return nil, err
	}
	for _, fan := range fanouts {
		if !fan.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.objects, fan.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			sha := shaOfObjectFile(f.Name())
			if sha == "" {
				strays = append(strays, filepath.Join(s.objects, fan.Name(), f.Name()))
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, scanned{sha, info.Size(), info.ModTime().Unix()})
		}
	}
	// Oldest first, so pushing to the front leaves the newest there.
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, f := range found {
		l.entries[f.sha] = l.lru.PushFront(&object{sha: f.sha, size: f.size, last: f.mtime})
		l.objects++
		l.bytes += f.size
	}
	l.replayJournal()
	return strays, nil
}

// replayJournal walks journal.log in order, refreshing recency and
// kinds for objects the scan found. Unparseable lines (a crash-torn
// tail, hand edits) and lines for vanished objects are skipped: the
// journal is a hint, the tree is the truth.
func (l *lifecycle) replayJournal() {
	data, err := l.s.fsys.ReadFile(l.s.journalPath())
	if err != nil {
		return // missing or unreadable: cold recency, still correct
	}
	accessRecords(data, func(sha, kind string, last int64) {
		el, live := l.entries[sha]
		if !live {
			return
		}
		o := el.Value.(*object)
		if kind != "" {
			o.kind = kind
		}
		if last > o.last {
			o.last = last
		}
		l.lru.MoveToFront(el)
	})
}

// accessRecords calls fn, in journal order, for every put or get line
// of a journal that parses; other lines are skipped. Lines are split
// on '\n' alone, so no line, however long, hides the lines after it.
func accessRecords(journal []byte, fn func(sha, kind string, last int64)) {
	for _, line := range strings.Split(string(journal), "\n") {
		op, sha, kind, _, last, ok := parseJournalLine(line)
		if ok && (op == "put" || op == "get") {
			fn(sha, kind, last)
		}
	}
}

// journal line format, one space-separated record per line:
//
//	put <sha> <kind> <size> <unix>
//	get <sha> - <size> <unix>
//	evict <sha> - <size> <unix>
//	quarantine <sha> - <size> <unix>
func journalLine(op, sha, kind string, size, last int64) []byte {
	if kind == "" {
		kind = "-"
	}
	b := make([]byte, 0, len(op)+len(sha)+len(kind)+44)
	b = append(append(append(b, op...), ' '), sha...)
	b = append(append(append(b, ' '), kind...), ' ')
	b = append(strconv.AppendInt(b, size, 10), ' ')
	return append(strconv.AppendInt(b, last, 10), '\n')
}

func parseJournalLine(line string) (op, sha, kind string, size, last int64, ok bool) {
	f := strings.Fields(line)
	if len(f) != 5 {
		return
	}
	op, sha, kind = f[0], f[1], f[2]
	if kind == "-" {
		kind = ""
	}
	var err1, err2 error
	size, err1 = strconv.ParseInt(f[3], 10, 64)
	last, err2 = strconv.ParseInt(f[4], 10, 64)
	ok = err1 == nil && err2 == nil && len(sha) == 64
	return
}

// appendJournal records one access, best effort: while the store is
// degraded the append is skipped outright (no point hammering a sick
// disk for a recency hint), and an append error is logged, not
// propagated — losing a journal line costs eviction precision only.
func (l *lifecycle) appendJournal(op, sha, kind string, size, last int64) {
	if l.s.health.isDegraded() {
		return
	}
	if err := l.s.fsys.Append(l.s.journalPath(), journalLine(op, sha, kind, size, last), 0o644); err != nil {
		log.Printf("store: journal append: %v", err)
	}
}

// noteGet refreshes recency after a disk hit (inserting the entry if
// the index somehow missed it — the tree is the truth).
func (l *lifecycle) noteGet(sha, kind string, size int64) {
	now := l.s.fsys.Now().Unix()
	l.mu.Lock()
	if el, ok := l.entries[sha]; ok {
		o := el.Value.(*object)
		if kind != "" {
			o.kind = kind
		}
		o.last = now
		l.lru.MoveToFront(el)
	} else {
		l.entries[sha] = l.lru.PushFront(&object{sha: sha, kind: kind, size: size, last: now})
		l.objects++
		l.bytes += size
	}
	l.mu.Unlock()
	l.appendJournal("get", sha, kind, size, now)
}

// notePut indexes a fresh publish and then enforces the size bound.
func (l *lifecycle) notePut(sha, kind string, size int64) {
	now := l.s.fsys.Now().Unix()
	l.mu.Lock()
	if el, ok := l.entries[sha]; ok {
		o := el.Value.(*object)
		l.bytes += size - o.size
		o.kind, o.size, o.last = kind, size, now
		l.lru.MoveToFront(el)
	} else {
		l.entries[sha] = l.lru.PushFront(&object{sha: sha, kind: kind, size: size, last: now})
		l.objects++
		l.bytes += size
	}
	victims := l.evictLocked(sha)
	l.mu.Unlock()
	l.appendJournal("put", sha, kind, size, now)
	l.removeVictims(victims, now)
}

// noteRemoved drops an externally removed object (quarantine, GC)
// from the index.
func (l *lifecycle) noteRemoved(sha string, size int64, op string) {
	if sha == "" {
		return
	}
	now := l.s.fsys.Now().Unix()
	l.mu.Lock()
	if el, ok := l.entries[sha]; ok {
		o := el.Value.(*object)
		l.bytes -= o.size
		l.objects--
		l.lru.Remove(el)
		delete(l.entries, sha)
	}
	l.mu.Unlock()
	l.appendJournal(op, sha, "", size, now)
}

// evictLocked picks least-recently-accessed victims until the
// footprint fits MaxBytes, skipping the artifact just published and
// every key with an open singleflight: a leader's artifact must still
// be on disk when its followers re-read, and evicting what you just
// wrote would turn a hot key into a recompute loop. If everything
// left is protected the pass stops — the bound is MaxBytes plus the
// in-flight working set, not a hard ceiling bought by breaking the
// cache contract. Victims leave the index here (under the lock);
// their files are removed by removeVictims outside it.
func (l *lifecycle) evictLocked(justPublished string) []*object {
	if l.s.opts.MaxBytes <= 0 || l.bytes <= l.s.opts.MaxBytes {
		return nil
	}
	l.s.mu.Lock()
	inFlight := make(map[string]bool, len(l.s.flights))
	for sha := range l.s.flights {
		inFlight[sha] = true
	}
	l.s.mu.Unlock()

	var victims []*object
	for el := l.lru.Back(); el != nil && l.bytes > l.s.opts.MaxBytes; {
		prev := el.Prev()
		o := el.Value.(*object)
		if o.sha != justPublished && !inFlight[o.sha] {
			victims = append(victims, o)
			l.bytes -= o.size
			l.objects--
			l.lru.Remove(el)
			delete(l.entries, o.sha)
		}
		el = prev
	}
	return victims
}

// removeVictims deletes evicted files, best effort with a single try:
// a removal that fails leaves an orphan on disk outside the index,
// which GC reconciles; retry loops here would stall the publish path.
func (l *lifecycle) removeVictims(victims []*object, now int64) {
	for _, o := range victims {
		path := l.s.ObjectPath(key.Key{SHA: o.sha})
		if err := l.s.fsys.Remove(path); err != nil {
			log.Printf("store: evict %s: %v (gc will reconcile)", o.sha[:12], err)
		}
		l.s.evictions.Add(1)
		l.appendJournal("evict", o.sha, "", o.size, now)
	}
}

// Size returns the store footprint from the incrementally maintained
// counters — O(1), no tree walk, safe to scrape per request.
func (s *Store) Size() Stats {
	s.lifecycle.mu.Lock()
	defer s.lifecycle.mu.Unlock()
	return Stats{Objects: s.lifecycle.objects, Bytes: s.lifecycle.bytes}
}

// Keys pages through the index in key order: up to limit entries with
// keys strictly after `after` (pass "" for the first page). next is
// the cursor for the following page, "" when exhausted.
func (s *Store) Keys(after string, limit int) (page []KeyInfo, next string) {
	if limit <= 0 {
		limit = 100
	}
	after = strings.TrimPrefix(after, "sha256:")
	l := &s.lifecycle
	l.mu.Lock()
	shas := make([]string, 0, len(l.entries))
	for sha := range l.entries {
		if sha > after {
			shas = append(shas, sha)
		}
	}
	sort.Strings(shas)
	if len(shas) > limit {
		shas, next = shas[:limit], "sha256:"+shas[limit-1]
	}
	for _, sha := range shas {
		o := l.entries[sha].Value.(*object)
		page = append(page, KeyInfo{
			Key:        "sha256:" + sha,
			Kind:       o.kind,
			Bytes:      o.size,
			LastAccess: unixRFC3339(o.last),
		})
	}
	l.mu.Unlock()
	return page, next
}

func unixRFC3339(u int64) string { return time.Unix(u, 0).UTC().Format(time.RFC3339) }

// shaOfObjectFile extracts the 64-hex sha from an artifact file name,
// or "" for anything else (temp files, strays).
func shaOfObjectFile(name string) string {
	sha, ok := strings.CutSuffix(name, ".json")
	if !ok || len(sha) != 64 {
		return ""
	}
	for _, c := range sha {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
	}
	return sha
}
