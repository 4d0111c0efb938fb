package mesh

import (
	"encoding/binary"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
)

// Control messages travel as fixed 50-byte frames. CtrlMsg is a flat record
// of small integers, so a hand-rolled codec beats a reflective one on both
// allocation count (zero per message, in both directions) and wire size; the
// control plane sits on every block's critical path (the ready-for-block
// notices of §4.2), so this matters for dataplane overhead.
//
// Layout (big endian):
//
//	off 0  Kind   uint8
//	off 1  flags  uint8 (bit 0: OK)
//	off 2  Group  uint32
//	off 6  Seq    uint32
//	off 10 Size   uint64
//	off 18 Round  uint32
//	off 22 Block  int32 (sign-preserving)
//	off 26 Node   uint32
//	off 30 Total  uint32
//	off 34 Count  uint32
//	off 38 Mask   uint64
//	off 46 BS     uint32
const ctrlWireLen = 50

func encodeCtrl(buf *[ctrlWireLen]byte, m core.CtrlMsg) {
	buf[0] = byte(m.Kind)
	buf[1] = 0
	if m.OK {
		buf[1] = 1
	}
	binary.BigEndian.PutUint32(buf[2:6], uint32(m.Group))
	binary.BigEndian.PutUint32(buf[6:10], uint32(m.Seq))
	binary.BigEndian.PutUint64(buf[10:18], uint64(m.Size))
	binary.BigEndian.PutUint32(buf[18:22], uint32(m.Round))
	binary.BigEndian.PutUint32(buf[22:26], uint32(int32(m.Block)))
	binary.BigEndian.PutUint32(buf[26:30], uint32(m.Node))
	binary.BigEndian.PutUint32(buf[30:34], uint32(m.Total))
	binary.BigEndian.PutUint32(buf[34:38], uint32(m.Count))
	binary.BigEndian.PutUint64(buf[38:46], m.Mask)
	binary.BigEndian.PutUint32(buf[46:50], uint32(m.BS))
}

func decodeCtrl(buf *[ctrlWireLen]byte) core.CtrlMsg {
	return core.CtrlMsg{
		Kind:  core.CtrlKind(buf[0]),
		OK:    buf[1]&1 != 0,
		Group: core.GroupID(binary.BigEndian.Uint32(buf[2:6])),
		Seq:   int(binary.BigEndian.Uint32(buf[6:10])),
		Size:  int64(binary.BigEndian.Uint64(buf[10:18])),
		Round: int(binary.BigEndian.Uint32(buf[18:22])),
		Block: int(int32(binary.BigEndian.Uint32(buf[22:26]))),
		Node:  rdma.NodeID(binary.BigEndian.Uint32(buf[26:30])),
		Total: int(binary.BigEndian.Uint32(buf[30:34])),
		Count: int(binary.BigEndian.Uint32(buf[34:38])),
		Mask:  binary.BigEndian.Uint64(buf[38:46]),
		BS:    int(binary.BigEndian.Uint32(buf[46:50])),
	}
}
