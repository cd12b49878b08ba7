package topoapi

// The body types, for the appender oracle in package topoapi_test.
type (
	Hop          = hop
	PathOut      = pathOut
	PathsBody    = pathsBody
	CriticalDuct = criticalDuct
	CriticalBody = criticalBody
	WhatIfBody   = whatIfBody
	HistoryBody  = historyBody
	DiffBody     = diffBody
)
