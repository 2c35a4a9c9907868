package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// CorruptDir is the quarantine directory for the files of dir: its
// corrupt/ subdirectory.
func CorruptDir(dir string) string { return filepath.Join(dir, "corrupt") }

// Quarantine moves the corrupt file at path into qdir (created if
// missing), so it leaves the namespace its readers scan and is never
// re-read in a loop, while the evidence stays for operators. The file
// keeps its name; on a collision with an earlier quarantine it gains
// a suffix .2, .3, … A "<dst>.reason" file beside it records reason,
// best effort. It returns the file's new path, or "" with no error
// when the source is already gone (another process moved or
// republished it first), in which case nothing is written.
//
// A caller may retry the whole call on a transient error: a rename
// that landed before its error leaves no source, which the retry
// reports as gone.
func Quarantine(fsys FS, path, qdir, reason string) (string, error) {
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Base(path)
	dst := filepath.Join(qdir, base)
	for i := 2; ; i++ {
		_, err := fsys.Stat(dst)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return "", err
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := fsys.Rename(path, dst); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", nil
		}
		return "", err
	}
	_ = fsys.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
	return dst, nil
}
