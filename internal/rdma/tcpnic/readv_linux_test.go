//go:build linux

package tcpnic

import (
	"bytes"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestPayloadReadCarriesNextHeader pins the lookahead: with a payload and the
// following header already buffered on the socket, one payload read leaves
// the whole next header in hand, so readHeader issues no read, and nothing
// past the header is taken. A silent fallback to two reads per frame would
// pass every functional test and hide in benchmark noise.
func TestPayloadReadCarriesNextHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tx, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	rx, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	payload := bytes.Repeat([]byte{0xa5}, 1000)
	next := [headerLen]byte{frameData, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0, 0, 16}
	tail := []byte("next payload")
	stream := append(append(append([]byte(nil), payload...), next[:]...), tail...)
	if _, err := tx.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitBuffered(t, rx, len(stream))

	fr := frameReader{conn: rx, vr: newVectorReader(rx)}
	if fr.vr == nil {
		t.Fatal("no vector reader for a TCP connection")
	}
	got := make([]byte, len(payload))
	if err := fr.readPayload(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if fr.have != headerLen {
		t.Fatalf("payload read brought %d of the next header's %d bytes", fr.have, headerLen)
	}
	// Every socket read fails from here on: readHeader must use what it holds.
	if err := rx.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := fr.readHeader(); err != nil {
		t.Fatalf("readHeader went to the socket: %v", err)
	}
	if fr.hdr != next {
		t.Fatalf("header = %v, want %v", fr.hdr, next)
	}
	if err := rx.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, len(tail))
	if _, err := io.ReadFull(rx, rest); err != nil || !bytes.Equal(rest, tail) {
		t.Fatalf("bytes past the header = %q, %v; want %q left on the socket", rest, err, tail)
	}
}

// waitBuffered blocks until n bytes are queued on conn's socket, peeking so
// nothing is consumed.
func waitBuffered(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	rc, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	for deadline := time.Now().Add(10 * time.Second); ; {
		got := 0
		if err := rc.Control(func(fd uintptr) {
			got, _, _ = syscall.Recvfrom(int(fd), buf, syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		}); err != nil {
			t.Fatal(err)
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d bytes arrived", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}
