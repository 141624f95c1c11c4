package snapshot

import (
	"fmt"
	"io"

	"eugene/internal/cache"
)

// DeviceState bundles one device's server-side edge-cache state (paper
// Section II-B) for migration: the model the device follows and its
// class-frequency tracker. It is the payload of GET/PUT
// /v1/devices/{id}/state and of the cluster router's device-state
// handoff on a planned drain — the same CRC'd framing as model
// snapshots, so a truncated or corrupted migration payload is rejected
// at decode, never half-installed.
type DeviceState struct {
	Model   string
	Tracker cache.TrackerState
}

// maxDeviceStateModel bounds the decoded model-name field; model names
// are HTTP path segments, never megabytes.
const maxDeviceStateModel = 4096

// EncodeDeviceState writes a device's cache state to w in snapshot
// format (kind 5). The tracker state is stored exactly — scaled counts,
// total, and scale factor as raw IEEE-754 bits — so a tracker restored
// from the wire answers every cache decision bitwise identically.
func EncodeDeviceState(w io.Writer, s *DeviceState) error {
	if s == nil {
		return fmt.Errorf("snapshot: nil device state")
	}
	if s.Model == "" {
		return fmt.Errorf("snapshot: device state with empty model name")
	}
	if len(s.Model) > maxDeviceStateModel {
		return fmt.Errorf("snapshot: device state model name of %d bytes", len(s.Model))
	}
	if err := s.Tracker.Validate(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	e := newEncoder(false, len(s.Tracker.Counts))
	e.str(s.Model)
	e.f64(s.Tracker.Decay)
	e.f64(s.Tracker.Inc)
	e.f64(s.Tracker.Total)
	e.f64s(s.Tracker.Counts)
	if e.err != nil {
		return e.err
	}
	return writeFile(w, e.frame(kindDeviceState), nil)
}

// DecodeDeviceState reads a device cache state, verifying framing,
// checksum, and tracker-state validity (scale range, finite
// non-negative counts), so a corrupt payload cannot install a tracker
// that later yields NaN shares or phantom hot classes. Class-count
// compatibility with the target model is the installer's check — the
// codec does not know the model.
func DecodeDeviceState(r io.Reader) (*DeviceState, error) {
	raw, err := readAll(r)
	if err != nil {
		return nil, err
	}
	_, body, err := deframe(raw, kindDeviceState)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: body}
	s := &DeviceState{Model: d.str()}
	s.Tracker.Decay = d.f64()
	s.Tracker.Inc = d.f64()
	s.Tracker.Total = d.f64()
	s.Tracker.Counts = d.f64s()
	if err := d.finish(); err != nil {
		return nil, err
	}
	if s.Model == "" {
		return nil, fmt.Errorf("snapshot: device state with empty model name")
	}
	if err := s.Tracker.Validate(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return s, nil
}

// str writes a length-prefixed UTF-8 string.
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// str reads a length-prefixed string, bounded so a hostile length
// cannot demand a giant allocation.
func (d *decoder) str() string {
	n := int(d.u32())
	if d.err != nil {
		return ""
	}
	if n > maxDeviceStateModel || n > len(d.b)-d.off {
		d.fail("string of %d bytes exceeds body", n)
		return ""
	}
	return string(d.take(n))
}
