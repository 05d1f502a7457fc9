package frame

import (
	"encoding/json"
	"fmt"
)

// Any holds a frame of any kind and is its checkpoint form: a lossless
// JSON encoding tagged with the kind, so an in-flight frame survives a
// checkpoint/resume cycle bit-exactly. The wire codec (Marshal/Unmarshal)
// is NOT suitable for that — it quantises Ack.LossRate to 1/65535 on the
// air, which is faithful physics but would make a resumed simulation
// diverge from the uninterrupted one. JSON round-trips float64 exactly.
// A nil frame encodes as null.
type Any struct{ Frame }

// anyJSON tags the concrete frame type so decoding can pick the right
// struct back out.
type anyJSON struct {
	Kind Kind            `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// emptyFrame makes a frame of each kind for UnmarshalJSON to fill.
var emptyFrame = map[Kind]func() Frame{
	KindHeader:         func() Frame { return &Control{} },
	KindTrailer:        func() Frame { return &Control{} },
	KindData:           func() Frame { return &Data{} },
	KindAck:            func() Frame { return &Ack{} },
	KindInterfererList: func() Frame { return &InterfererList{} },
	KindDot11Data:      func() Frame { return &Dot11Data{} },
	KindDot11Ack:       func() Frame { return &Dot11Ack{} },
	KindDot11RTS:       func() Frame { return &Dot11RTS{} },
	KindDot11CTS:       func() Frame { return &Dot11CTS{} },
}

// MarshalJSON implements json.Marshaler.
func (a Any) MarshalJSON() ([]byte, error) {
	if a.Frame == nil {
		return []byte("null"), nil
	}
	body, err := json.Marshal(a.Frame)
	if err != nil {
		return nil, err
	}
	return json.Marshal(anyJSON{Kind: a.Frame.Kind(), Body: body})
}

// UnmarshalJSON implements json.Unmarshaler. The result is a freshly
// allocated frame with field-identical content; pointer identity is not
// preserved (no component in this codebase compares frames by pointer).
func (a *Any) UnmarshalJSON(b []byte) error {
	var env *anyJSON
	if err := json.Unmarshal(b, &env); err != nil {
		return fmt.Errorf("frame: bad state envelope: %w", err)
	}
	if env == nil {
		a.Frame = nil
		return nil
	}
	mk, ok := emptyFrame[env.Kind]
	if !ok {
		return fmt.Errorf("frame: state envelope names unknown kind %d", env.Kind)
	}
	f := mk()
	if err := json.Unmarshal(env.Body, f); err != nil {
		return fmt.Errorf("frame: bad %v state body: %w", env.Kind, err)
	}
	a.Frame = f
	return nil
}
