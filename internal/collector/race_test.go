//go:build race

package collector

func init() { raceBuild = true }
