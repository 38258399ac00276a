"""RA612 fixture: a public class that no module imports."""


class AnnotatorPool:
    def _spawn_worker(self):
        return None
