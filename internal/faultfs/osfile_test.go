package faultfs

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// The OS seam's read and append behave as os.ReadFile and an O_APPEND
// os.OpenFile write: contents of any length, creation with the given
// mode, and fs.PathError errors that errors.Is classifies.
func TestOSReadFileAndAppend(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	if _, err := fsys.ReadFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read of a missing file: %v, want fs.ErrNotExist", err)
	}
	var want []byte
	for i, n := range []int{0, 1, 700, 1 << 17} {
		chunk := bytes.Repeat([]byte{byte('a' + i)}, n)
		if err := fsys.Append(path, chunk, 0o640); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
		got, err := fsys.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after %d appends: read %d bytes (%v), want %d", i+1, len(got), err, len(want))
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o640&^umask(t) {
		t.Fatalf("appended file mode %v (%v)", fi.Mode(), err)
	}
	if _, err := fsys.ReadFile(dir); err == nil {
		t.Fatal("read of a directory succeeded")
	}
	var pe *fs.PathError
	if err := fsys.Append(filepath.Join(dir, "no", "such"), []byte("x"), 0o644); !errors.As(err, &pe) || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("append under a missing directory: %v", err)
	}
}

// umask reads the process umask from a file created with mode 0777.
func umask(t *testing.T) fs.FileMode {
	p := filepath.Join(t.TempDir(), "probe")
	if err := os.WriteFile(p, nil, 0o777); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	return 0o777 &^ fi.Mode().Perm()
}
