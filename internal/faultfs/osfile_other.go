//go:build !linux

package faultfs

import (
	"io/fs"
	"os"
)

func readFile(name string) ([]byte, error) { return os.ReadFile(name) }

func appendFile(name string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
