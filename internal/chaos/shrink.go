package chaos

// Shrink minimizes cfg's violating schedule with delta debugging (ddmin):
// it searches for a 1-minimal subset of the event list that still
// reproduces a violation from the same checker, then additionally trims
// MaxCycles to just past the violation. The predicate is a pure
// function of the schedule — runs are deterministic and events apply
// best-effort, so every subset is runnable — which makes the shrink
// itself deterministic.
//
// Matching on the checker name (rather than the exact detail string)
// keeps shrinking effective when removing events shifts cycle numbers
// or stream IDs inside the message while the underlying breach is the
// same.
func Shrink(cfg RunConfig, orig Violation) Schedule {
	sch := cfg.Schedule
	run := func(s Schedule) *Violation {
		cfg.Schedule = s
		res, err := Run(cfg)
		if err != nil || res.Violation == nil || res.Violation.Checker != orig.Checker {
			return nil
		}
		return res.Violation
	}

	out := sch
	out.Events = ddmin(sch.Events, func(sub []Event) bool {
		s := sch
		s.Events = sub
		return run(s) != nil
	})

	// Trim the tail: re-run to find where the violation now fires and
	// cut MaxCycles just past it.
	if v := run(out); v != nil {
		trimmed := out
		trimmed.MaxCycles = v.Cycle + 2
		if trimmed.MaxCycles < out.MaxCycles && run(trimmed) != nil {
			out = trimmed
		}
	}
	return out
}

// ddmin is the classic Zeller/Hildebrandt delta-debugging minimization
// over the event list. test must hold for the full list; the result is
// 1-minimal: removing any single remaining event breaks reproduction.
func ddmin(events []Event, test func([]Event) bool) []Event {
	if len(events) == 0 || test(nil) {
		return nil
	}
	if !test(events) {
		// The caller's violation does not reproduce even unshrunk (a
		// non-deterministic checker would cause this; ours are pure).
		// Return the original rather than minimize the wrong thing.
		return events
	}
	cur := append([]Event(nil), events...)
	n := 2
	for len(cur) >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		// Try each chunk alone.
		for i := 0; i < len(cur); i += chunk {
			end := i + chunk
			if end > len(cur) {
				end = len(cur)
			}
			subset := append([]Event(nil), cur[i:end]...)
			if len(subset) < len(cur) && test(subset) {
				cur, n, reduced = subset, 2, true
				break
			}
		}
		if reduced {
			continue
		}
		// Try each chunk's complement.
		for i := 0; i < len(cur); i += chunk {
			end := i + chunk
			if end > len(cur) {
				end = len(cur)
			}
			comp := append([]Event(nil), cur[:i]...)
			comp = append(comp, cur[end:]...)
			if len(comp) < len(cur) && test(comp) {
				cur = comp
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= len(cur) {
			break
		}
		n *= 2
		if n > len(cur) {
			n = len(cur)
		}
	}
	return cur
}
