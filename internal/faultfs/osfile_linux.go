package faultfs

import (
	"io"
	"io/fs"
	"syscall"
)

// readFile and appendFile are os.ReadFile and an O_APPEND write done
// with plain system calls. An *os.File registers each descriptor with
// the runtime poller, which for a regular file costs a handful of
// extra fcntl and epoll calls that fail or undo each other; the serve
// store reads an artifact and appends a journal line on every warm
// hit, so those calls were a measurable share of a hit. Errors are
// *fs.PathError over the errno, as the os package reports them.

func readFile(name string) ([]byte, error) {
	fd, err := openRetrying(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: err}
	}
	// One spare byte, so a file read whole is seen to end without a
	// second buffer.
	data := make([]byte, 0, max(st.Size, 0)+1)
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := syscall.Read(fd, data[len(data):cap(data)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &fs.PathError{Op: "read", Path: name, Err: err}
		}
		if n == 0 {
			return data, nil
		}
		data = data[:len(data)+n]
	}
}

func appendFile(name string, data []byte, perm fs.FileMode) error {
	fd, err := openRetrying(name, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_APPEND|syscall.O_CLOEXEC, uint32(perm.Perm()))
	if err != nil {
		return &fs.PathError{Op: "open", Path: name, Err: err}
	}
	for len(data) > 0 {
		n, err := syscall.Write(fd, data)
		if err == syscall.EINTR {
			continue
		}
		if err == nil && n == 0 {
			err = io.ErrShortWrite
		}
		if err != nil {
			syscall.Close(fd)
			return &fs.PathError{Op: "write", Path: name, Err: err}
		}
		data = data[n:]
	}
	if err := syscall.Close(fd); err != nil {
		return &fs.PathError{Op: "close", Path: name, Err: err}
	}
	return nil
}

func openRetrying(name string, flags int, perm uint32) (int, error) {
	for {
		fd, err := syscall.Open(name, flags, perm)
		if err != syscall.EINTR {
			return fd, err
		}
	}
}
