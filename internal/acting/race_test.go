//go:build race

package acting

func init() { raceEnabled = true }
