package store

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzParseJournalLine fuzzes journal replay's line parser over whole
// journal files split the way replayJournal splits them: no line
// panics it, and every record it accepts is written back by
// journalLine as a line that parses to the same record.
func FuzzParseJournalLine(f *testing.F) {
	sha := strings.Repeat("ab", 32)
	for _, seed := range []string{
		string(journalLine("put", sha, "simulate", 512, 1700000000)),
		string(journalLine("get", sha, "", 512, 1700000001)) + string(journalLine("evict", sha, "", 512, 1700000002)),
		string(journalLine("quarantine", sha, "", 0, -1)),
		"put " + sha + " sweep 12 17000", // torn tail
		"get " + sha + " - +7 0012\r\n",
		"put " + sha + " verify 9223372036854775808 1\n",
		"put " + sha[:63] + " verify 1 1\n",
		"put  " + sha + "\t- 1 2 3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			op, sha, kind, size, last, ok := parseJournalLine(sc.Text())
			if !ok {
				continue
			}
			line := string(journalLine(op, sha, kind, size, last))
			op2, sha2, kind2, size2, last2, ok2 := parseJournalLine(strings.TrimSuffix(line, "\n"))
			if !ok2 || op2 != op || sha2 != sha || kind2 != kind || size2 != size || last2 != last {
				t.Fatalf("record (%q %q %q %d %d) from %q rewrote as %q, which parses to (%q %q %q %d %d ok=%v)",
					op, sha, kind, size, last, sc.Text(), line, op2, sha2, kind2, size2, last2, ok2)
			}
		}
	})
}
