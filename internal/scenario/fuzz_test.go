package scenario

import (
	"testing"
)

// FuzzParse hardens the scenario JSON surface: arbitrary input must
// either parse into a spec that passes Validate, or error — never panic.
func FuzzParse(f *testing.F) {
	f.Add([]byte(validJSON))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scheme":"sr","disks":10,"cluster_size":5,"titles":1,"title_groups":1,"requests":[{"cycle":0,"title":"title0"}]}`))
	f.Add([]byte(`{"scheme":"sr","disks":8,"cluster_size":4,"titles":1,"title_groups":2,"requests":[{"cycle":0,"title":"title0"}],"vcr_events":[{"cycle":1,"kind":"pause","stream":0},{"cycle":2,"kind":"ff","stream":0,"rate":2},{"cycle":3,"kind":"rewind","stream":0,"track":1},{"cycle":4,"kind":"resume","stream":0}]}`))
	f.Add([]byte(`{"vcr_events":[{"cycle":-1,"kind":"warp","stream":-3,"rate":-9,"track":-1}]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// A parsed spec must re-validate.
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", err)
		}
	})
}
