//go:build race

package core

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops what it is given at random;
// the allocation pins skip themselves when it is set.
const raceEnabled = true
