//go:build race

package radiusstep_test

func init() { raceEnabled = true }
