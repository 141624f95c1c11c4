package core

import (
	"fmt"
	"slices"
	"sync"

	"eugene/internal/cache"
	"eugene/internal/dataset"
)

// DefaultSubsetHidden and DefaultSubsetEpochs size reduced hot-class
// models when a reduction request leaves them 0.
const (
	DefaultSubsetHidden = 24
	DefaultSubsetEpochs = 10
)

// Reduce trains a reduced hot-class model for caching on a device (paper
// Section II-B): it returns the subset model for download. train may be
// nil, in which case the data retained from the model's last Train call
// is used (models installed via Register/InstallSnapshot retain none).
// hidden and epochs default to DefaultSubsetHidden/DefaultSubsetEpochs
// when 0.
func (s *Service) Reduce(name string, train *dataset.Set, hot []int, hidden, epochs int) (*cache.SubsetModel, error) {
	if _, err := s.get(name); err != nil {
		return nil, err
	}
	if train == nil {
		s.mu.RLock()
		train = s.trainData[name]
		s.mu.RUnlock()
		if train == nil {
			return nil, fmt.Errorf("%w for %q; supply data with the reduction request", ErrNoTrainingData, name)
		}
	}
	if hidden == 0 {
		hidden = DefaultSubsetHidden
	}
	if epochs == 0 {
		epochs = DefaultSubsetEpochs
	}
	sub, err := cache.TrainSubset(train, hot, hidden, epochs, 1)
	if err != nil {
		return nil, fmt.Errorf("core: reducing %q: %w", name, err)
	}
	return sub, nil
}

// deviceState is the server-side record of one device's request stream
// (paper Section II-B): the frequency tracker fed by live inference
// traffic, the caching policy, and the most recently built subset model.
type deviceState struct {
	model   string
	tracker *cache.FreqTracker
	policy  cache.Policy

	mu     sync.Mutex
	sub    *cache.SubsetModel
	subHot []int
}

// CacheDecision reports whether (and with which hot classes) a device
// should cache a reduced model.
type CacheDecision struct {
	Model        string
	Cache        bool
	Hot          []int
	Share        float64
	Observations float64
}

// deviceFor returns (creating if needed) the device's tracker state.
// A device follows one model; observing it against a different model
// resets the stream.
func (s *Service) deviceFor(device, model string) (*deviceState, error) {
	if device == "" {
		return nil, ErrEmptyDevice
	}
	entry, err := s.get(model)
	if err != nil {
		return nil, err
	}
	s.devMu.Lock()
	defer s.devMu.Unlock()
	if st, ok := s.devices[device]; ok && st.model == model {
		return st, nil
	}
	tracker, err := cache.NewFreqTracker(entry.Model.Classes, 0.999)
	if err != nil {
		return nil, err
	}
	st := &deviceState{model: model, tracker: tracker, policy: cache.DefaultPolicy()}
	s.devices[device] = st
	return st, nil
}

// Observe feeds count requests for class on the named device into its
// frequency tracker — the signal behind cache decisions. Inference
// handlers call it with each answered prediction when the client tags
// its requests with a device id.
func (s *Service) Observe(device, model string, class, count int) error {
	st, err := s.deviceFor(device, model)
	if err != nil {
		return err
	}
	if count < 1 {
		count = 1
	}
	if class < 0 || class >= st.tracker.Classes() {
		return fmt.Errorf("core: class %d %w %q's %d classes", class, ErrClassRange, model, st.tracker.Classes())
	}
	st.tracker.ObserveN(class, count)
	return nil
}

// CacheDecision evaluates the caching policy for a device: whether the
// observed traffic justifies a reduced hot-class model, and over which
// classes.
func (s *Service) CacheDecision(device string) (CacheDecision, error) {
	s.devMu.Lock()
	st, ok := s.devices[device]
	s.devMu.Unlock()
	if !ok {
		return CacheDecision{}, fmt.Errorf("%w %q (no observations yet)", ErrUnknownDevice, device)
	}
	hot, share := st.policy.DecideShare(st.tracker)
	return CacheDecision{
		Model:        st.model,
		Cache:        hot != nil,
		Hot:          hot,
		Share:        share,
		Observations: st.tracker.Observations(),
	}, nil
}

// ExportDeviceState returns the device's model name and a copy of its
// frequency-tracker state, the payload of a device-state handoff: a
// tracker restored from it (ImportDeviceState on another node) answers
// every cache decision bitwise identically. The device keeps serving
// here — export does not detach anything, so a failed migration leaves
// the source state intact.
func (s *Service) ExportDeviceState(device string) (string, cache.TrackerState, error) {
	s.devMu.Lock()
	st, ok := s.devices[device]
	s.devMu.Unlock()
	if !ok {
		return "", cache.TrackerState{}, fmt.Errorf("%w %q (no observations yet)", ErrUnknownDevice, device)
	}
	return st.model, st.tracker.Export(), nil
}

// ImportDeviceState installs a migrated frequency tracker for device,
// replacing any existing state (a re-delivered migration must converge
// on the migrated state, not double-count it). The model must be
// registered here and its class count must match the tracker's —
// otherwise ErrBadDeviceState, and nothing is installed.
func (s *Service) ImportDeviceState(device, model string, ts cache.TrackerState) error {
	if device == "" {
		return ErrEmptyDevice
	}
	entry, err := s.get(model)
	if err != nil {
		return err
	}
	tracker, err := cache.ImportTracker(ts)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDeviceState, err)
	}
	if tracker.Classes() != entry.Model.Classes {
		return fmt.Errorf("%w: tracker covers %d classes, model %q has %d",
			ErrBadDeviceState, tracker.Classes(), model, entry.Model.Classes)
	}
	st := &deviceState{model: model, tracker: tracker, policy: cache.DefaultPolicy()}
	s.devMu.Lock()
	s.devices[device] = st
	s.devMu.Unlock()
	return nil
}

// DeviceSubset returns the reduced model a device should cache: it
// evaluates the policy, trains a subset model over the hot classes
// (reusing the previous one while the hot set is unchanged), and returns
// it with the decision. Training data comes from the model's retained
// train set.
func (s *Service) DeviceSubset(device string, hidden, epochs int) (*cache.SubsetModel, CacheDecision, error) {
	d, err := s.CacheDecision(device)
	if err != nil {
		return nil, CacheDecision{}, err
	}
	if !d.Cache {
		return nil, d, fmt.Errorf("%w for device %q yet (%.0f observations)", ErrCachingNotJustified, device, d.Observations)
	}
	s.devMu.Lock()
	st, ok := s.devices[device]
	s.devMu.Unlock()
	if !ok || st.model != d.Model {
		// A concurrent Observe against a different model replaced the
		// device's state between the decision and here; pairing the old
		// decision's hot classes with the new model would train a
		// subset over the wrong label space.
		return nil, CacheDecision{}, fmt.Errorf("core: device %q switched models; retry", device)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sub != nil && slices.Equal(st.subHot, d.Hot) {
		return st.sub, d, nil
	}
	sub, err := s.Reduce(st.model, nil, d.Hot, hidden, epochs)
	if err != nil {
		return nil, d, err
	}
	st.sub, st.subHot = sub, append([]int(nil), d.Hot...)
	return sub, d, nil
}
