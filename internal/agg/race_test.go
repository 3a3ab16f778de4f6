//go:build race

package agg

func init() { raceBuild = true }
