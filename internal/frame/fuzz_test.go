package frame

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzFrameUnmarshal: Unmarshal never panics on any byte string, and a
// frame it accepts re-encodes to exactly WireSize bytes that decode to
// an equal frame. With sealed set the input is a body and gets a valid
// CRC appended, so the fuzzer reaches every kind's decoder instead of
// stopping at the checksum.
func FuzzFrameUnmarshal(f *testing.F) {
	for _, fr := range []Frame{
		&Control{Src: AddrFromID(1), Dst: AddrFromID(2), TxTimeMicros: 6200, Seq: 7, Rate: 3},
		&Control{Trailer: true, Seq: 8},
		&Data{Src: AddrFromID(1), Dst: Broadcast, PktSeq: 9, VSeq: 2, Index: 31, PayloadLen: 12},
		&Ack{CumSeq: 40, VSeq: 3, Bitmap: []byte{0xa5, 1}, LossRate: 0.25},
		&InterfererList{Relayed: true, Entries: []InterferenceEntry{{Source: AddrFromID(4), Interferer: AddrFromID(5), Rate: 1}}},
		&Dot11Data{Seq: 11, Retry: true, PayloadLen: 3},
		&Dot11Ack{Seq: 11},
		&Dot11RTS{DurationUS: 300},
		&Dot11CTS{DurationUS: 250},
	} {
		b := Marshal(fr)
		f.Add(b, false)
		f.Add(b[:len(b)-4], true)
	}
	f.Add([]byte{}, false)
	f.Add([]byte{byte(KindAck), 0, 0}, true)
	f.Fuzz(func(t *testing.T, b []byte, sealed bool) {
		if sealed {
			b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
		}
		fr, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc := Marshal(fr)
		if len(enc) != fr.WireSize() {
			t.Fatalf("%s re-encodes to %d bytes, WireSize says %d", fr.Kind(), len(enc), fr.WireSize())
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("%s re-encoding does not decode: %v", fr.Kind(), err)
		}
		if !reflect.DeepEqual(again, fr) {
			t.Fatalf("%s round trip changed the frame:\n %+v\n %+v", fr.Kind(), fr, again)
		}
	})
}
