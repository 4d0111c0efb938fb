package mesh

import (
	"testing"

	"rdmc/internal/core"
)

// FuzzCtrlFrame decodes arbitrary frames. Inputs are zero-padded or cut to
// the 50-byte frame, so every input is a frame a peer could send. Decoding
// must never panic, and re-encoding the decoded message must reproduce the
// frame exactly, except for the flags byte's unused bits.
func FuzzCtrlFrame(f *testing.F) {
	var seed [ctrlWireLen]byte
	encodeCtrl(&seed, core.CtrlMsg{Kind: core.CtrlReadyBlock, Group: 7, Seq: 3, Round: 2, Block: 5, Count: 4})
	f.Add(seed[:])
	encodeCtrl(&seed, core.CtrlMsg{Kind: core.CtrlPrepare, Group: 1, Size: 1<<32 - 1, Mask: 1 << 63, BS: 1 << 20})
	f.Add(seed[:])
	encodeCtrl(&seed, core.CtrlMsg{Kind: core.CtrlCloseAck, Group: 1, OK: true, Node: 3, Block: -1})
	f.Add(seed[:])
	f.Fuzz(func(t *testing.T, b []byte) {
		var frame [ctrlWireLen]byte
		copy(frame[:], b)
		m := decodeCtrl(&frame)
		var out [ctrlWireLen]byte
		encodeCtrl(&out, m)
		want := frame
		want[1] &= 1
		if out != want {
			t.Fatalf("round trip of %x gave %x (decoded %+v)", frame, out, m)
		}
	})
}
