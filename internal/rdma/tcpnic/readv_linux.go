//go:build linux

package tcpnic

import (
	"io"
	"net"
	"syscall"
	"unsafe"
)

// vectorReader issues one readv(2) over two segments: a frame payload's
// destination, then the frame reader's header array. The bytes after a
// payload are the next frame's header, so whatever part of it the socket
// already holds lands in the same syscall, and the classic two-read decode
// (header, then payload) costs one read per frame on a pipelined stream.
// It integrates with the runtime poller through syscall.RawConn, so a
// not-ready socket parks the goroutine instead of spinning, and a
// concurrent Close unblocks it like any net.Conn read.
//
// The iovec array and the fd callback live on the struct and are built
// once, keeping the per-read path allocation-free.
type vectorReader struct {
	rc  syscall.RawConn
	iov [2]syscall.Iovec
	n   int
	err error
	fn  func(fd uintptr) bool
}

// newVectorReader returns nil when the connection cannot expose its fd
// (in-memory pipes in tests); the reader then falls back to plain reads.
func newVectorReader(conn net.Conn) *vectorReader {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	v := &vectorReader{rc: rc}
	v.fn = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall(syscall.SYS_READV, fd, uintptr(unsafe.Pointer(&v.iov[0])), uintptr(len(v.iov)))
			switch errno {
			case 0:
				if n == 0 {
					v.err = io.EOF
				}
				v.n = int(n)
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // not ready: re-arm the poller and park
			default:
				v.err = errno
				return true
			}
		}
	}
	return v
}

// readv scatters one read across a then b, returning how many bytes landed
// in total: possibly short, since the kernel returns what is buffered, and
// bytes reach b only once a is full. Both segments must be non-empty.
func (v *vectorReader) readv(a, b []byte) (int, error) {
	v.iov[0].Base, v.iov[1].Base = &a[0], &b[0]
	v.iov[0].SetLen(len(a))
	v.iov[1].SetLen(len(b))
	v.n, v.err = 0, nil
	err := v.rc.Read(v.fn)
	v.iov = [2]syscall.Iovec{}
	if err != nil {
		return 0, err
	}
	return v.n, v.err
}
