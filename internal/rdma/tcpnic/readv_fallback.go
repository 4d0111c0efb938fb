//go:build !linux

package tcpnic

import "net"

// vectorReader is unavailable off Linux: newVectorReader returns nil and
// the frame reader reads each header and payload with plain reads.
type vectorReader struct{}

func newVectorReader(net.Conn) *vectorReader { return nil }

func (v *vectorReader) readv(a, b []byte) (int, error) { return 0, nil }
