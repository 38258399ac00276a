"""Home-package fixture: DecisionRecord is defined and built in repro.obs."""


class DecisionRecord:
    def __init__(self, sentence_id, mention_index):
        self.key = (sentence_id, mention_index)


def _record(sentence_id):
    return DecisionRecord(sentence_id, 0)
