/** @file The event module's original include path; see event.hh. */

#ifndef SPM_TELEMETRY_FLIGHTREC_HH
#define SPM_TELEMETRY_FLIGHTREC_HH

#include "telemetry/event.hh"

#endif // SPM_TELEMETRY_FLIGHTREC_HH
