//go:build race

package tea

func init() { raceEnabled = true }
